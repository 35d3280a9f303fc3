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

Each study is one loop over its level table, one result row per level,
in table order.  ``tests/ablation/test_legacy_golden.py`` pins every
study to the bodies as first written (``tests/oracles/legacy.py``); the
declarative matrix engine in :mod:`repro.ablation` is a separate tool
with its own registry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.analysis.tables import format_table
from repro.browser.config import BrowserConfig
from repro.browser.energy_aware import EnergyAwareEngine
from repro.browser.original import OriginalEngine
from repro.core.comparison import compare_engines, mean
from repro.core.config import ExperimentConfig
from repro.core.session import browse_and_read
from repro.ml.linear import LinearRegressor
from repro.ml.metrics import threshold_accuracy
from repro.ml.validation import train_test_split
from repro.prediction.predictor import ReadingTimePredictor
from repro.rrc.config import RrcConfig
from repro.rrc.tail import promotion_latency_grid, tail_state_grid
from repro.traces.generator import TraceConfig, generate_trace
from repro.webpages.corpus import benchmark_pages, find_page


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
    """Original vs reorganisation-only vs full energy-aware browser."""
    base = config or ExperimentConfig()
    variants = (
        ("original", OriginalEngine, base),
        ("reorganised, no release", EnergyAwareEngine,
         replace(base, browser=BrowserConfig(dormancy_after_tx=False))),
        ("reorganised, no intermediate display", EnergyAwareEngine,
         replace(base, browser=BrowserConfig(intermediate_display=False))),
        ("energy-aware (full)", EnergyAwareEngine, base),
    )
    pages = benchmark_pages(mobile=False)
    rows: List[ReorganisationRow] = []
    for variant, engine_cls, variant_config in variants:
        sessions = [browse_and_read(page, engine_cls, reading_time=0.0,
                                    config=variant_config)
                    for page in pages]
        rows.append(ReorganisationRow(
            variant=variant,
            tx_time=mean([s.load.data_transmission_time
                          for s in sessions]),
            load_time=mean([s.load.load_complete_time for s in sessions]),
            loading_energy=mean([s.loading_energy.total
                                 for s in sessions])))
    return ReorganisationAblation(rows=rows)


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
    page = find_page(page_name)
    rows: List[TimerRow] = []
    for t1, t2 in ((1.0, 5.0), (2.0, 10.0), (4.0, 15.0), (8.0, 15.0)):
        rrc = RrcConfig(t1=t1, t2=t2)
        config = replace(ExperimentConfig(), rrc=rrc)
        session = browse_and_read(page, OriginalEngine, reading_time,
                                  config=config)
        last_byte = max(t.completed_at for t in session.load.transfers)
        load_end = (session.load.started_at
                    + session.load.load_complete_time)
        # The next click lands `reading_time` after the page finished;
        # the tail is anchored at the last byte.
        offset = load_end - last_byte + reading_time
        state = tail_state_grid(np.asarray(offset), rrc.t1,
                                rrc.t1 + rrc.t2)
        rows.append(TimerRow(
            t1=t1, t2=t2, total_energy=session.total_energy,
            next_click_delay=float(promotion_latency_grid(state, rrc))))
    return TimerAblation(rows=rows, reading_time=reading_time)


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
    dataset = generate_trace(trace_config).filter_reading_time() \
        .exclude_quick_bounces(2.0)
    x, y = dataset.to_arrays()
    x_train, x_test, y_train, y_test = train_test_split(
        x, y, test_fraction=0.3, random_state=split_seed)
    rows: List[PredictorRow] = []
    for model, n_estimators in (("linear (ridge)", None),
                                ("GBRT M=25", 25), ("GBRT M=100", 100),
                                ("GBRT M=300", 300)):
        if n_estimators is None:
            linear = LinearRegressor().fit(x_train, np.log1p(y_train))
            predicted = np.expm1(linear.predict(x_test))
        else:
            predictor = ReadingTimePredictor(n_estimators=n_estimators,
                                             interest_threshold=None)
            predictor.fit_arrays(x_train, y_train)
            predicted = predictor.predict(x_test)
        rows.append(PredictorRow(
            model=model,
            accuracy_tp=threshold_accuracy(y_test, predicted, 9.0),
            accuracy_td=threshold_accuracy(y_test, predicted, 20.0)))
    return PredictorAblation(rows=rows)


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
    dataset = generate_trace(trace_config).filter_reading_time()
    rows: List[AlphaRow] = []
    for alpha in (0.0, 1.0, 2.0, 4.0, 8.0):
        kept = dataset.exclude_quick_bounces(alpha) if alpha > 0 \
            else dataset
        x, y = kept.to_arrays()
        x_train, x_test, y_train, y_test = train_test_split(
            x, y, test_fraction=0.3, random_state=split_seed)
        predictor = ReadingTimePredictor(n_estimators=150,
                                         interest_threshold=None)
        predictor.fit_arrays(x_train, y_train)
        rows.append(AlphaRow(
            alpha=alpha,
            accuracy_tp=threshold_accuracy(
                y_test, predictor.predict(x_test), 9.0),
            coverage=len(kept) / len(dataset)))
    return AlphaAblation(rows=rows)


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
    page = find_page(page_name)
    rows: List[CarrierRow] = []
    # RRC inactivity-timer presets seen in the measurement literature
    # (Qian et al. report per-carrier values in this range; the paper's
    # T-Mobile network uses 4 s / 15 s).
    for carrier, t1, t2 in (("t-mobile (paper)", 4.0, 15.0),
                            ("carrier B", 5.0, 12.0),
                            ("aggressive", 2.0, 8.0),
                            ("conservative", 6.0, 20.0)):
        config = replace(ExperimentConfig(), rrc=RrcConfig(t1=t1, t2=t2))
        comparison = compare_engines(page, reading_time=reading_time,
                                     config=config)
        rows.append(CarrierRow(carrier=carrier, t1=t1, t2=t2,
                               energy_saving=comparison.energy_saving))
    return CarrierAblation(rows=rows, reading_time=reading_time)


#: Canonical name → zero-argument runner registry, shared by the CLI and
#: the parallel runner (:mod:`repro.runtime.parallel`).
ALL_ABLATIONS = {
    "reorganisation": reorganisation_ablation,
    "timers": timer_ablation,
    "predictor": predictor_ablation,
    "alpha": interest_threshold_ablation,
    "carriers": carrier_ablation,
}
