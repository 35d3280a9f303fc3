"""Declarative component registry for ablation studies.

The paper's energy savings hinge on a handful of coupled knobs —
computation-sequence reorganisation, the intermediate display, fast
dormancy, the reading-time predictor, the T1/T2 RRC timers and the
α/Tp/Td thresholds.  Until now each knob was probed by its own ad-hoc
``test_ablation_*`` experiment; this module declares every knob **once**
as a :class:`Component` with named levels, and everything downstream
(matrix generation, importance ranking, search) is generated from the
declarations.

A component does not carry code.  Its levels are plain field-override
mappings applied to a :class:`VariantSetup` — the frozen record of every
tunable the objective layer understands — via ``dataclasses.replace``.
That keeps declarations picklable (they cross process-pool boundaries),
diffable, and content-addressable: a run is identified by *which levels
it assigns*, never by the identity of a patch function.

Canonical ordering is by component **name** everywhere (registration
order is irrelevant), so run IDs and matrices are stable under
declaration reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.browser.config import BrowserConfig
from repro.core.config import ExperimentConfig, PolicyConfig
from repro.rrc.config import RrcConfig


@dataclass(frozen=True)
class VariantSetup:
    """Every knob the ablation objective understands, in one record.

    Defaults are the full energy-aware system with the paper's Table 2
    parameters and a perfect (oracle) reading-time predictor — the
    baseline every ablation is measured against.
    """

    #: Computation-sequence reorganisation (Section 4.1): ``False`` runs
    #: the stock browser engine instead.
    reorganisation: bool = True
    #: Simplified intermediate display (Section 4.2).
    intermediate_display: bool = True
    #: Fast dormancy: release the channels at the last byte and allow
    #: the post-load FACH→IDLE switch.  ``False`` leaves the radio to
    #: its inactivity timers.
    fast_dormancy: bool = True
    #: Reading-time predictor family used for the switch decision:
    #: ``oracle`` (perfect), ``gbrt-like`` (oracle with the GBRT's
    #: seeded log-normal error band), ``always-switch``, ``never-switch``.
    predictor: str = "oracle"
    #: RRC inactivity timers (Section 2.1; T-Mobile: 4 s / 15 s).
    t1: float = 4.0
    t2: float = 15.0
    #: Algorithm 2 thresholds (Table 2).
    alpha: float = 2.0
    tp: float = 9.0
    td: float = 20.0
    #: Threshold mode: ``power`` (Tp) or ``delay`` (Td).
    mode: str = "power"

    _PREDICTORS = ("oracle", "gbrt-like", "always-switch", "never-switch")

    def __post_init__(self) -> None:
        if self.predictor not in self._PREDICTORS:
            raise ValueError(f"predictor must be one of "
                             f"{self._PREDICTORS}, got {self.predictor!r}")
        # Timer/threshold validation is delegated to the config
        # dataclasses so the rules live in exactly one place.
        self.to_config()

    def to_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` this setup patches out."""
        return ExperimentConfig(
            rrc=RrcConfig(t1=self.t1, t2=self.t2),
            browser=BrowserConfig(
                intermediate_display=self.intermediate_display,
                dormancy_after_tx=self.fast_dormancy),
            policy=PolicyConfig(interest_threshold=self.alpha,
                                power_threshold=self.tp,
                                delay_threshold=self.td,
                                mode=self.mode))

    def apply(self, overrides: Mapping[str, object]) -> "VariantSetup":
        """A copy with ``overrides`` replacing fields (validated)."""
        unknown = sorted(set(overrides) - {f.name for f in fields(self)})
        if unknown:
            raise KeyError(f"unknown VariantSetup fields: {unknown}")
        return replace(self, **dict(overrides))


#: The stock browser the paper measures against: no reorganisation, no
#: fast dormancy, and no switch policy.  ``energy_saving`` metrics are
#: relative to this setup under the same scenario.
STOCK_SETUP = VariantSetup(reorganisation=False, fast_dormancy=False,
                           predictor="never-switch")


@dataclass(frozen=True)
class Component:
    """One declared knob: named levels, each a field-override mapping.

    ``levels`` is an ordered tuple of ``(level_name, overrides)`` pairs;
    ``baseline`` names the level the full system runs at and ``ablated``
    the level a leave-one-out matrix knocks the component down to
    (default: the first non-baseline level).
    """

    name: str
    description: str
    levels: Tuple[Tuple[str, Mapping[str, object]], ...]
    baseline: str
    ablated: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")
        names = [level for level, _ in self.levels]
        if len(names) < 2:
            raise ValueError(
                f"component {self.name!r} needs at least two levels")
        if len(set(names)) != len(names):
            raise ValueError(
                f"component {self.name!r} has duplicate level names")
        if self.baseline not in names:
            raise ValueError(
                f"component {self.name!r}: baseline {self.baseline!r} "
                f"is not a declared level")
        if self.ablated:
            if self.ablated not in names:
                raise ValueError(
                    f"component {self.name!r}: ablated level "
                    f"{self.ablated!r} is not declared")
        else:
            fallback = next(level for level in names
                            if level != self.baseline)
            object.__setattr__(self, "ablated", fallback)

    @property
    def level_names(self) -> Tuple[str, ...]:
        return tuple(level for level, _ in self.levels)

    def overrides_for(self, level: str) -> Mapping[str, object]:
        for name, overrides in self.levels:
            if name == level:
                return overrides
        raise KeyError(f"component {self.name!r} has no level {level!r}; "
                       f"known: {list(self.level_names)}")


class ComponentRegistry:
    """A set of declared components, canonically ordered by name."""

    def __init__(self, components: Optional[List[Component]] = None):
        self._components: Dict[str, Component] = {}
        for component in components or ():
            self.register(component)

    def register(self, component: Component) -> Component:
        if component.name in self._components:
            raise ValueError(
                f"component {component.name!r} already registered")
        self._components[component.name] = component
        return component

    def get(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise KeyError(f"unknown component {name!r}; "
                           f"known: {self.names()}") from None

    def names(self) -> List[str]:
        """Component names in canonical (sorted) order."""
        return sorted(self._components)

    def components(self) -> List[Component]:
        """Components in canonical order, whatever order they were
        registered in."""
        return [self._components[name] for name in self.names()]

    def subset(self, names) -> "ComponentRegistry":
        """A registry holding only ``names`` (canonical order kept)."""
        return ComponentRegistry([self.get(name) for name in names])

    def baseline_assignment(self) -> Dict[str, str]:
        """Every component at its baseline level (canonical order)."""
        return {component.name: component.baseline
                for component in self.components()}

    def setup_for(self, assignment: Mapping[str, str],
                  base: Optional[VariantSetup] = None) -> VariantSetup:
        """Resolve a component→level assignment into a
        :class:`VariantSetup`.

        Unassigned components sit at their baseline level.  Overrides
        apply in canonical component order, so the result is independent
        of both declaration order and the assignment's key order even
        when components touch overlapping fields.
        """
        unknown = sorted(set(assignment) - set(self._components))
        if unknown:
            raise KeyError(f"assignment names unknown components: "
                           f"{unknown}; known: {self.names()}")
        setup = base or VariantSetup()
        for component in self.components():
            level = assignment.get(component.name, component.baseline)
            setup = setup.apply(component.overrides_for(level))
        return setup

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components())

    def __contains__(self, name: str) -> bool:
        return name in self._components


# ----------------------------------------------------------------------
# The paper's components, declared once.
# ----------------------------------------------------------------------

#: Carrier T1/T2 presets from the measurement literature (the values
#: of the carrier study in :mod:`repro.experiments.ablations`), as
#: levels of the ``timers`` component.
TIMER_LEVELS: Tuple[Tuple[str, Mapping[str, object]], ...] = (
    ("t-mobile", {"t1": 4.0, "t2": 15.0}),
    ("carrier-b", {"t1": 5.0, "t2": 12.0}),
    ("aggressive", {"t1": 2.0, "t2": 8.0}),
    ("conservative", {"t1": 6.0, "t2": 20.0}),
)


def default_registry() -> ComponentRegistry:
    """The paper's knobs as one declarative registry.

    Every legacy ``test_ablation_*`` component appears: reorganisation
    and the intermediate display (the reorganisation study), fast
    dormancy (Section 4.1's radio action), the predictor family (the
    predictor study, collapsed to decision quality), the carrier timer
    presets (the timers/carriers studies) and the Algorithm 2 thresholds
    (the α study).
    """
    registry = ComponentRegistry()
    registry.register(Component(
        name="reorganisation",
        description="computation-sequence reorganisation (Section 4.1)",
        levels=(("on", {"reorganisation": True}),
                ("off", {"reorganisation": False})),
        baseline="on"))
    registry.register(Component(
        name="intermediate_display",
        description="simplified intermediate display (Section 4.2)",
        levels=(("on", {"intermediate_display": True}),
                ("off", {"intermediate_display": False})),
        baseline="on"))
    registry.register(Component(
        name="fast_dormancy",
        description="release channels at the last byte + allow the "
                    "post-load IDLE switch (Section 4.1)",
        levels=(("on", {"fast_dormancy": True}),
                ("off", {"fast_dormancy": False})),
        baseline="on"))
    registry.register(Component(
        name="predictor",
        description="reading-time predictor quality behind Algorithm 2",
        levels=(("oracle", {"predictor": "oracle"}),
                ("gbrt-like", {"predictor": "gbrt-like"}),
                ("always-switch", {"predictor": "always-switch"}),
                ("never-switch", {"predictor": "never-switch"})),
        baseline="oracle",
        ablated="always-switch"))
    registry.register(Component(
        name="timers",
        description="carrier T1/T2 inactivity-timer preset",
        levels=TIMER_LEVELS,
        baseline="t-mobile",
        ablated="aggressive"))
    registry.register(Component(
        name="thresholds",
        description="Algorithm 2 switching thresholds (α, Tp, Td)",
        levels=(("paper", {"alpha": 2.0, "tp": 9.0, "td": 20.0}),
                ("eager", {"alpha": 0.5, "tp": 4.0, "td": 20.0}),
                ("reluctant", {"alpha": 4.0, "tp": 18.0, "td": 20.0})),
        baseline="paper",
        ablated="eager"))
    return registry
