"""Ablation studies for the design choices DESIGN.md calls out.

Five studies, none of which appear as figures in the paper but each of
which tests one of its design arguments:

- :func:`reorganisation_ablation` — decompose the energy-aware browser's
  saving into its two mechanisms: grouping the transmissions (the
  computation reorganisation itself) and releasing the channels at the
  last byte (Section 4.1's radio action).
- :func:`timer_ablation` — Section 1's claim that "simply adjusting the
  timer may not be a good solution": sweep T1/T2 under the *stock*
  browser and watch energy fall while the next click's promotion penalty
  rises.
- :func:`predictor_ablation` — Section 5.1.3's claim that linear models
  cannot predict reading time, plus the M (boosting rounds) sweep behind
  Section 5.6.3's overfitting remark.
- :func:`interest_threshold_ablation` — Section 4.3.4's α: sweep the
  interest threshold and watch the accuracy/coverage trade-off.
- :func:`carrier_ablation` — robustness: the savings are not an artefact
  of T-Mobile's particular T1/T2 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.core.config import ExperimentConfig
from repro.traces.generator import TraceConfig


# ----------------------------------------------------------------------
# 1. Which mechanism saves what?
# ----------------------------------------------------------------------
@dataclass
class ReorganisationRow:
    variant: str
    tx_time: float
    load_time: float
    loading_energy: float


@dataclass
class ReorganisationAblation:
    rows: List[ReorganisationRow]

    def row(self, variant: str) -> ReorganisationRow:
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(variant)

    def report(self) -> str:
        table_rows = [(row.variant, round(row.tx_time, 1),
                       round(row.load_time, 1),
                       round(row.loading_energy, 1))
                      for row in self.rows]
        return format_table(
            ("variant", "tx s", "load s", "load energy J"), table_rows,
            title="Ablation: reorganisation vs channel release "
                  "(full benchmark averages)")


def reorganisation_ablation(config: Optional[ExperimentConfig] = None
                            ) -> ReorganisationAblation:
    """Original vs reorganisation-only vs full energy-aware browser.

    Delegates to the declarative registry port
    (:mod:`repro.ablation.legacy`); ``tests/oracles/legacy.py`` keeps
    the original implementation for the golden equivalence test.
    """
    from repro.ablation.legacy import run_legacy

    return run_legacy("reorganisation", config=config)


# ----------------------------------------------------------------------
# 2. Why not just shorten the timers?
# ----------------------------------------------------------------------
@dataclass
class TimerRow:
    t1: float
    t2: float
    total_energy: float
    next_click_delay: float


@dataclass
class TimerAblation:
    rows: List[TimerRow]
    reading_time: float

    def report(self) -> str:
        table_rows = [(row.t1, row.t2, round(row.total_energy, 1),
                       round(row.next_click_delay, 2))
                      for row in self.rows]
        return format_table(
            ("T1 s", "T2 s", "energy J", "next-click promo s"),
            table_rows,
            title=f"Ablation: RRC timer tuning under the stock browser "
                  f"({self.reading_time:.0f} s reading)") + (
            "\n  the paper's point: cutting timers trades energy against "
            "promotion delay on every short read")


def timer_ablation(reading_time: float = 10.0,
                   page_name: str = "www.motors.ebay.com") -> TimerAblation:
    """Sweep T1/T2 under the stock browser on one full-version page."""
    from repro.ablation.legacy import run_legacy

    return run_legacy("timers", reading_time=reading_time,
                      page_name=page_name)


# ----------------------------------------------------------------------
# 3. Trees vs linear; how many boosting rounds?
# ----------------------------------------------------------------------
@dataclass
class PredictorRow:
    model: str
    accuracy_tp: float
    accuracy_td: float


@dataclass
class PredictorAblation:
    rows: List[PredictorRow]

    def accuracy(self, model: str, threshold: float) -> float:
        for row in self.rows:
            if row.model == model:
                return (row.accuracy_tp if threshold == 9.0
                        else row.accuracy_td)
        raise KeyError(model)

    def report(self) -> str:
        table_rows = [(row.model, f"{100 * row.accuracy_tp:.1f}%",
                       f"{100 * row.accuracy_td:.1f}%")
                      for row in self.rows]
        return format_table(
            ("model", "acc Tp=9", "acc Td=20"), table_rows,
            title="Ablation: predictor family and capacity "
                  "(trained/evaluated above the interest threshold)")


def predictor_ablation(trace_config: Optional[TraceConfig] = None,
                       split_seed: int = 7) -> PredictorAblation:
    """Linear baseline vs GBRT at several boosting budgets."""
    from repro.ablation.legacy import run_legacy

    return run_legacy("predictor", trace_config=trace_config,
                      split_seed=split_seed)


# ----------------------------------------------------------------------
# 4. The interest threshold α
# ----------------------------------------------------------------------
@dataclass
class AlphaRow:
    alpha: float
    accuracy_tp: float
    #: Fraction of pageviews the predictor is ever consulted for.
    coverage: float


@dataclass
class AlphaAblation:
    rows: List[AlphaRow]

    def report(self) -> str:
        table_rows = [(row.alpha, f"{100 * row.accuracy_tp:.1f}%",
                       f"{100 * row.coverage:.1f}%")
                      for row in self.rows]
        return format_table(
            ("alpha s", "acc Tp=9", "coverage"), table_rows,
            title="Ablation: interest threshold "
                  "(accuracy up, coverage down)") + (
            "\n  the paper picks alpha = 2 s: 30% of visits filtered "
            "for ~10% accuracy")


def interest_threshold_ablation(trace_config: Optional[TraceConfig] = None,
                                split_seed: int = 7) -> AlphaAblation:
    """Sweep α and measure the accuracy/coverage trade-off."""
    from repro.ablation.legacy import run_legacy

    return run_legacy("alpha", trace_config=trace_config,
                      split_seed=split_seed)


# ----------------------------------------------------------------------
# 5. Does the saving survive other carriers' timer settings?
# ----------------------------------------------------------------------
@dataclass
class CarrierRow:
    carrier: str
    t1: float
    t2: float
    energy_saving: float


@dataclass
class CarrierAblation:
    rows: List[CarrierRow]
    reading_time: float

    def report(self) -> str:
        table_rows = [(row.carrier, row.t1, row.t2,
                       f"{100 * row.energy_saving:.1f}%")
                      for row in self.rows]
        return format_table(
            ("carrier", "T1 s", "T2 s", "energy saving"), table_rows,
            title=f"Ablation: energy saving across carrier timer "
                  f"presets ({self.reading_time:.0f} s reading)") + (
            "\n  the technique is not a timer artefact: savings persist "
            "under every preset")


def carrier_ablation(reading_time: float = 20.0,
                     page_name: str = "espn.go.com/sports"
                     ) -> CarrierAblation:
    """Energy saving of the full system under different RRC timers."""
    from repro.ablation.legacy import run_legacy

    return run_legacy("carriers", reading_time=reading_time,
                      page_name=page_name)


#: Canonical name → zero-argument runner registry, shared by the CLI and
#: the parallel runner (:mod:`repro.runtime.parallel`).
ALL_ABLATIONS = {
    "reorganisation": reorganisation_ablation,
    "timers": timer_ablation,
    "predictor": predictor_ablation,
    "alpha": interest_threshold_ablation,
    "carriers": carrier_ablation,
}
