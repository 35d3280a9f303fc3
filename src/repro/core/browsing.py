"""Multi-page browsing sessions on a single handset.

:func:`browse_session` replays a whole user session — page, read, click,
next page — on one simulated handset, so the radio state carries across
pageviews exactly as on a real phone: a quick click catches the radio in
FACH (cheap promotion), a long read behind Algorithm 2 finds it in IDLE
(expensive promotion, the Fig. 3 trade-off), and the energy/delay of the
whole session emerges from the same machinery the per-page experiments
use.

This is the library's "daily driver" entry point; the Fig. 16 experiment
uses an analytic equivalent for speed (validated against this replay in
the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Type

from repro.browser.engine import BrowserEngine, PageLoadResult
from repro.core.config import ExperimentConfig
from repro.core.session import Handset
from repro.prediction.features import features_from_load
from repro.units import require_non_negative
from repro.webpages.page import Webpage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    # prediction.policy imports core.config, so `import repro.prediction`
    # as a process's first repro import would re-enter it half built.
    from repro.prediction.policy import PolicyDecision, SwitchPolicy


@dataclass
class PageVisit:
    """One planned pageview: the page and how long the user reads it."""

    page: Webpage
    reading_time: float

    def __post_init__(self) -> None:
        require_non_negative("reading_time", self.reading_time)


@dataclass
class VisitOutcome:
    """What one pageview cost."""

    page_url: str
    load: PageLoadResult
    reading_time: float
    #: Radio+CPU+signalling energy from navigation to the next click.
    energy: float
    #: Policy decision taken after the page opened (None when no policy
    #: ran, e.g. reading shorter than the interest threshold).
    decision: Optional[PolicyDecision]


@dataclass
class SessionOutcome:
    """A whole session's accounting."""

    visits: List[VisitOutcome] = field(default_factory=list)
    total_energy: float = 0.0
    total_time: float = 0.0

    @property
    def total_loading_time(self) -> float:
        return sum(v.load.load_complete_time for v in self.visits)

    @property
    def switch_count(self) -> int:
        return sum(1 for v in self.visits
                   if v.decision is not None
                   and v.decision.switch_to_idle)


def browse_session(visits: Sequence[PageVisit],
                   engine_cls: Type[BrowserEngine],
                   config: Optional[ExperimentConfig] = None,
                   policy: Optional[SwitchPolicy] = None,
                   handset: Optional[Handset] = None) -> SessionOutcome:
    """Replay a session of pageviews on one handset.

    After each page opens, if a ``policy`` is given and the reading time
    exceeds the interest threshold α, the policy is consulted with the
    live Table-1 features; a switch decision sends FAST_DORMANCY through
    the RIL at open + α (Algorithm 2's timing).  The next page's load
    then starts from whatever radio state that left behind.
    """
    if not visits:
        raise ValueError("a session needs at least one visit")
    device = handset or Handset(config)
    sim = device.sim
    alpha = device.config.policy.interest_threshold
    outcome = SessionOutcome()
    session_start = sim.now

    for visit in visits:
        visit_start = sim.now
        engine = device.make_engine(engine_cls, visit.page)
        results: List[PageLoadResult] = []
        engine.load(results.append)
        # Run events only until this load completes — timers that would
        # fire during the (not yet simulated) reading must stay queued.
        while not results and sim.step():
            pass
        if not results:
            raise RuntimeError(f"{visit.page.url!r} never finished loading")
        load = results[0]
        open_time = sim.now

        decision: Optional[PolicyDecision] = None
        if policy is not None and visit.reading_time > alpha:
            features = features_from_load(visit.page, load)
            decision = policy.decide(features, visit.reading_time)
            if decision.switch_to_idle:
                sim.schedule(alpha,
                             lambda: device.ril.request_fast_dormancy())

        click_time = open_time + visit.reading_time
        sim.run(until=click_time)
        energy = device.accountant.total_energy(visit_start, click_time)
        outcome.visits.append(VisitOutcome(
            page_url=visit.page.url, load=load,
            reading_time=visit.reading_time, energy=energy,
            decision=decision))

    outcome.total_time = sim.now - session_start
    outcome.total_energy = device.accountant.total_energy(
        session_start, sim.now)
    return outcome


def compare_session_policies(
        visits: Sequence[PageVisit],
        engine_cls: Type[BrowserEngine],
        policies: Sequence[Tuple[str, Optional[SwitchPolicy]]],
        config: Optional[ExperimentConfig] = None,
) -> List[Tuple[str, SessionOutcome]]:
    """Replay the same session under several policies (fresh handsets)."""
    return [(name, browse_session(visits, engine_cls, config=config,
                                  policy=policy))
            for name, policy in policies]
