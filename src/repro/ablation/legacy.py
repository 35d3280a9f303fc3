"""The five ad-hoc ablation studies, ported onto the declarative registry.

Each legacy study in :mod:`repro.experiments.ablations` becomes one
declared :class:`~repro.ablation.components.Component` (its variants are
the component's levels, in the study's original row order) plus a named
**metric extractor** — the study-specific measurement the generic
objective does not compute (threshold accuracy, coverage, engine
comparison savings).  The public ``reorganisation_ablation`` /
``timer_ablation`` / … functions in ``experiments.ablations`` now
delegate here; a golden test pins the new path's reports to the original
implementations byte-for-byte.

The split of responsibilities matches the tentpole design: the registry
*declares* what varies (levels as plain override mappings — VariantSetup
fields where the knob is an engine knob, study-domain parameters like
the GBRT boosting budget where it is not), the extractor *measures*, and
a fold assembles the study's legacy result object so every report,
table, and downstream consumer stays identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.ablation.components import Component, ComponentRegistry

#: Evaluation context shared by every level of one study run.
Context = Dict[str, Any]


# ----------------------------------------------------------------------
# Component declarations (levels in legacy row order).
# ----------------------------------------------------------------------

REORGANISATION_COMPONENT = Component(
    name="reorganisation_variant",
    description="which of the two mechanisms (grouping, release) runs",
    levels=(
        ("original", {"reorganisation": False}),
        ("reorganised, no release", {"fast_dormancy": False}),
        ("reorganised, no intermediate display",
         {"intermediate_display": False}),
        ("energy-aware (full)", {}),
    ),
    baseline="energy-aware (full)",
    ablated="original")

TIMER_COMPONENT = Component(
    name="timer_preset",
    description="T1/T2 sweep under the stock browser",
    levels=(
        ("1/5", {"t1": 1.0, "t2": 5.0}),
        ("2/10", {"t1": 2.0, "t2": 10.0}),
        ("4/15", {"t1": 4.0, "t2": 15.0}),
        ("8/15", {"t1": 8.0, "t2": 15.0}),
    ),
    baseline="4/15",
    ablated="1/5")

PREDICTOR_COMPONENT = Component(
    name="predictor_model",
    description="linear baseline vs GBRT at several boosting budgets",
    levels=(
        ("linear (ridge)", {"model": "linear"}),
        ("GBRT M=25", {"model": "gbrt", "n_estimators": 25}),
        ("GBRT M=100", {"model": "gbrt", "n_estimators": 100}),
        ("GBRT M=300", {"model": "gbrt", "n_estimators": 300}),
    ),
    baseline="GBRT M=300",
    ablated="linear (ridge)")

ALPHA_COMPONENT = Component(
    name="interest_threshold",
    description="interest threshold α: accuracy vs coverage",
    levels=(
        ("0", {"alpha": 0.0}),
        ("1", {"alpha": 1.0}),
        ("2", {"alpha": 2.0}),
        ("4", {"alpha": 4.0}),
        ("8", {"alpha": 8.0}),
    ),
    baseline="2",
    ablated="0")

CARRIER_COMPONENT = Component(
    name="carrier_timers",
    description="full-system saving across carrier timer presets",
    levels=(
        ("t-mobile (paper)", {"t1": 4.0, "t2": 15.0}),
        ("carrier B", {"t1": 5.0, "t2": 12.0}),
        ("aggressive", {"t1": 2.0, "t2": 8.0}),
        ("conservative", {"t1": 6.0, "t2": 20.0}),
    ),
    baseline="t-mobile (paper)",
    ablated="aggressive")


def legacy_registry() -> ComponentRegistry:
    """All five legacy study components in one registry."""
    return ComponentRegistry([
        REORGANISATION_COMPONENT, TIMER_COMPONENT, PREDICTOR_COMPONENT,
        ALPHA_COMPONENT, CARRIER_COMPONENT])


# ----------------------------------------------------------------------
# Metric extractors: one level → one legacy row.
# ----------------------------------------------------------------------


def _prepare_reorganisation(params: Mapping[str, Any]) -> Context:
    from repro.core.config import ExperimentConfig
    from repro.webpages.corpus import benchmark_pages

    return {"base": params.get("config") or ExperimentConfig(),
            "pages": benchmark_pages(mobile=False)}


def _extract_reorganisation(level: str, overrides: Mapping[str, Any],
                            ctx: Context):
    from repro.browser.config import BrowserConfig
    from repro.browser.energy_aware import EnergyAwareEngine
    from repro.browser.original import OriginalEngine
    from repro.core.comparison import mean
    from repro.core.session import browse_and_read
    from repro.experiments.ablations import ReorganisationRow

    engine_cls = (EnergyAwareEngine
                  if overrides.get("reorganisation", True)
                  else OriginalEngine)
    browser_knobs = {}
    if "fast_dormancy" in overrides:
        browser_knobs["dormancy_after_tx"] = overrides["fast_dormancy"]
    if "intermediate_display" in overrides:
        browser_knobs["intermediate_display"] = \
            overrides["intermediate_display"]
    config = ctx["base"]
    if browser_knobs:
        config = replace(config, browser=BrowserConfig(**browser_knobs))
    sessions = [browse_and_read(page, engine_cls, reading_time=0.0,
                                config=config)
                for page in ctx["pages"]]
    return ReorganisationRow(
        variant=level,
        tx_time=mean([s.load.data_transmission_time for s in sessions]),
        load_time=mean([s.load.load_complete_time for s in sessions]),
        loading_energy=mean([s.loading_energy.total for s in sessions]))


def _fold_reorganisation(rows: List, params: Mapping[str, Any]):
    from repro.experiments.ablations import ReorganisationAblation

    return ReorganisationAblation(rows=rows)


def _prepare_timers(params: Mapping[str, Any]) -> Context:
    from repro.webpages.corpus import find_page

    return {"page": find_page(params.get("page_name",
                                         "www.motors.ebay.com")),
            "reading_time": params.get("reading_time", 10.0)}


def _extract_timers(level: str, overrides: Mapping[str, Any],
                    ctx: Context):
    from repro.browser.original import OriginalEngine
    from repro.core.config import ExperimentConfig
    from repro.core.session import browse_and_read
    from repro.experiments.ablations import TimerRow
    from repro.rrc.config import RrcConfig
    from repro.rrc.tail import promotion_latency_grid, tail_state_grid

    t1, t2 = float(overrides["t1"]), float(overrides["t2"])
    reading_time = ctx["reading_time"]
    rrc = RrcConfig(t1=t1, t2=t2)
    config = replace(ExperimentConfig(), rrc=rrc)
    session = browse_and_read(ctx["page"], OriginalEngine, reading_time,
                              config=config)
    last_byte = max(t.completed_at for t in session.load.transfers)
    load_end = session.load.started_at + session.load.load_complete_time
    offset = load_end - last_byte + reading_time
    state = tail_state_grid(np.asarray(offset), rrc.t1, rrc.t1 + rrc.t2)
    return TimerRow(t1=t1, t2=t2, total_energy=session.total_energy,
                    next_click_delay=float(promotion_latency_grid(state,
                                                                  rrc)))


def _fold_timers(rows: List, params: Mapping[str, Any]):
    from repro.experiments.ablations import TimerAblation

    return TimerAblation(rows=rows,
                         reading_time=params.get("reading_time", 10.0))


def _prepare_predictor(params: Mapping[str, Any]) -> Context:
    from repro.ml.validation import train_test_split
    from repro.traces.generator import generate_trace

    dataset = generate_trace(params.get("trace_config")) \
        .filter_reading_time().exclude_quick_bounces(2.0)
    x, y = dataset.to_arrays()
    x_train, x_test, y_train, y_test = train_test_split(
        x, y, test_fraction=0.3,
        random_state=params.get("split_seed", 7))
    return {"x_train": x_train, "x_test": x_test,
            "y_train": y_train, "y_test": y_test}


def _extract_predictor(level: str, overrides: Mapping[str, Any],
                       ctx: Context):
    from repro.experiments.ablations import PredictorRow
    from repro.ml.linear import LinearRegressor
    from repro.ml.metrics import threshold_accuracy
    from repro.prediction.predictor import ReadingTimePredictor

    if overrides["model"] == "linear":
        linear = LinearRegressor().fit(ctx["x_train"],
                                       np.log1p(ctx["y_train"]))
        predicted = np.expm1(linear.predict(ctx["x_test"]))
    else:
        predictor = ReadingTimePredictor(
            n_estimators=int(overrides["n_estimators"]),
            interest_threshold=None)
        predictor.fit_arrays(ctx["x_train"], ctx["y_train"])
        predicted = predictor.predict(ctx["x_test"])
    return PredictorRow(
        model=level,
        accuracy_tp=threshold_accuracy(ctx["y_test"], predicted, 9.0),
        accuracy_td=threshold_accuracy(ctx["y_test"], predicted, 20.0))


def _fold_predictor(rows: List, params: Mapping[str, Any]):
    from repro.experiments.ablations import PredictorAblation

    return PredictorAblation(rows=rows)


def _prepare_alpha(params: Mapping[str, Any]) -> Context:
    from repro.traces.generator import generate_trace

    dataset = generate_trace(params.get("trace_config")) \
        .filter_reading_time()
    return {"dataset": dataset, "total": len(dataset),
            "split_seed": params.get("split_seed", 7)}


def _extract_alpha(level: str, overrides: Mapping[str, Any],
                   ctx: Context):
    from repro.experiments.ablations import AlphaRow
    from repro.ml.metrics import threshold_accuracy
    from repro.ml.validation import train_test_split
    from repro.prediction.predictor import ReadingTimePredictor

    alpha = float(overrides["alpha"])
    dataset = ctx["dataset"]
    kept = dataset.exclude_quick_bounces(alpha) if alpha > 0 else dataset
    x, y = kept.to_arrays()
    x_train, x_test, y_train, y_test = train_test_split(
        x, y, test_fraction=0.3, random_state=ctx["split_seed"])
    predictor = ReadingTimePredictor(n_estimators=150,
                                     interest_threshold=None)
    predictor.fit_arrays(x_train, y_train)
    accuracy = threshold_accuracy(y_test, predictor.predict(x_test),
                                  9.0)
    return AlphaRow(alpha=alpha, accuracy_tp=accuracy,
                    coverage=len(kept) / ctx["total"])


def _fold_alpha(rows: List, params: Mapping[str, Any]):
    from repro.experiments.ablations import AlphaAblation

    return AlphaAblation(rows=rows)


def _prepare_carriers(params: Mapping[str, Any]) -> Context:
    from repro.webpages.corpus import find_page

    return {"page": find_page(params.get("page_name",
                                         "espn.go.com/sports")),
            "reading_time": params.get("reading_time", 20.0)}


def _extract_carriers(level: str, overrides: Mapping[str, Any],
                      ctx: Context):
    from repro.core.comparison import compare_engines
    from repro.core.config import ExperimentConfig
    from repro.experiments.ablations import CarrierRow
    from repro.rrc.config import RrcConfig

    t1, t2 = float(overrides["t1"]), float(overrides["t2"])
    config = replace(ExperimentConfig(), rrc=RrcConfig(t1=t1, t2=t2))
    comparison = compare_engines(ctx["page"],
                                 reading_time=ctx["reading_time"],
                                 config=config)
    return CarrierRow(carrier=level, t1=t1, t2=t2,
                      energy_saving=comparison.energy_saving)


def _fold_carriers(rows: List, params: Mapping[str, Any]):
    from repro.experiments.ablations import CarrierAblation

    return CarrierAblation(rows=rows,
                           reading_time=params.get("reading_time",
                                                   20.0))


@dataclass(frozen=True)
class LegacyStudy:
    """One ported study: a component plus its extractor and fold."""

    name: str
    component: Component
    prepare: Callable[[Mapping[str, Any]], Context]
    extract: Callable[[str, Mapping[str, Any], Context], Any]
    fold: Callable[[List[Any], Mapping[str, Any]], Any]

    def run(self, **params: Any) -> Any:
        """Enumerate the component's levels in declared (legacy row)
        order, extract each level's row, fold the legacy result."""
        ctx = self.prepare(params)
        rows = [self.extract(level, overrides, ctx)
                for level, overrides in self.component.levels]
        return self.fold(rows, params)


#: Legacy study name → ported study, keyed exactly as ``ALL_ABLATIONS``.
LEGACY_STUDIES: Dict[str, LegacyStudy] = {
    "reorganisation": LegacyStudy(
        "reorganisation", REORGANISATION_COMPONENT,
        _prepare_reorganisation, _extract_reorganisation,
        _fold_reorganisation),
    "timers": LegacyStudy(
        "timers", TIMER_COMPONENT, _prepare_timers, _extract_timers,
        _fold_timers),
    "predictor": LegacyStudy(
        "predictor", PREDICTOR_COMPONENT, _prepare_predictor,
        _extract_predictor, _fold_predictor),
    "alpha": LegacyStudy(
        "alpha", ALPHA_COMPONENT, _prepare_alpha, _extract_alpha,
        _fold_alpha),
    "carriers": LegacyStudy(
        "carriers", CARRIER_COMPONENT, _prepare_carriers,
        _extract_carriers, _fold_carriers),
}


def run_legacy(name: str, **params: Any) -> Any:
    """Run one ported study by its ``ALL_ABLATIONS`` name."""
    try:
        study = LEGACY_STUDIES[name]
    except KeyError:
        raise KeyError(f"unknown legacy study {name!r}; known: "
                       f"{sorted(LEGACY_STUDIES)}") from None
    return study.run(**params)
