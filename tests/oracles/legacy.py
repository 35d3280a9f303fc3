"""The five ablation studies as first written.

``repro.experiments.ablations`` must reproduce these bodies bit for bit
(``tests/ablation/test_legacy_golden.py``).  The timer study here still
scores through the scalar tail twins of ``tests/oracles/tail.py``.
"""

from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.browser.config import BrowserConfig
from repro.browser.energy_aware import EnergyAwareEngine
from repro.browser.original import OriginalEngine
from repro.core.comparison import compare_engines, mean
from repro.core.config import ExperimentConfig
from repro.core.session import browse_and_read
from repro.experiments.ablations import (
    AlphaAblation,
    AlphaRow,
    CarrierAblation,
    CarrierRow,
    PredictorAblation,
    PredictorRow,
    ReorganisationAblation,
    ReorganisationRow,
    TimerAblation,
    TimerRow,
)
from repro.ml.linear import LinearRegressor
from repro.ml.metrics import threshold_accuracy
from repro.ml.validation import train_test_split
from repro.prediction.predictor import ReadingTimePredictor
from repro.rrc.config import RrcConfig
from repro.traces.generator import TraceConfig, generate_trace
from repro.webpages.corpus import benchmark_pages, find_page
from tests.oracles.tail import promotion_latency, tail_state_after_tx

#: RRC inactivity-timer presets seen in the measurement literature
#: (Qian et al. report per-carrier values in this range; the paper's
#: T-Mobile network uses 4 s / 15 s).
CARRIER_PRESETS = (
    ("t-mobile (paper)", 4.0, 15.0),
    ("carrier B", 5.0, 12.0),
    ("aggressive", 2.0, 8.0),
    ("conservative", 6.0, 20.0),
)


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
    rows: List[ReorganisationRow] = []
    pages = benchmark_pages(mobile=False)
    for name, engine_cls, variant_config in variants:
        sessions = [browse_and_read(page, engine_cls, reading_time=0.0,
                                    config=variant_config)
                    for page in pages]
        rows.append(ReorganisationRow(
            variant=name,
            tx_time=mean([s.load.data_transmission_time
                          for s in sessions]),
            load_time=mean([s.load.load_complete_time for s in sessions]),
            loading_energy=mean([s.loading_energy.total
                                 for s in sessions])))
    return ReorganisationAblation(rows=rows)


def timer_ablation(reading_time: float = 10.0,
                   page_name: str = "www.motors.ebay.com") -> TimerAblation:
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
        offset = load_end - last_byte + reading_time
        state = tail_state_after_tx(offset, rrc)
        rows.append(TimerRow(
            t1=t1, t2=t2,
            total_energy=session.total_energy,
            next_click_delay=promotion_latency(state, rrc)))
    return TimerAblation(rows=rows, reading_time=reading_time)


def predictor_ablation(trace_config: Optional[TraceConfig] = None,
                       split_seed: int = 7) -> PredictorAblation:
    dataset = generate_trace(trace_config).filter_reading_time() \
        .exclude_quick_bounces(2.0)
    x, y = dataset.to_arrays()
    x_train, x_test, y_train, y_test = train_test_split(
        x, y, test_fraction=0.3, random_state=split_seed)

    rows: List[PredictorRow] = []

    linear = LinearRegressor().fit(x_train, np.log1p(y_train))
    linear_pred = np.expm1(linear.predict(x_test))
    rows.append(PredictorRow(
        model="linear (ridge)",
        accuracy_tp=threshold_accuracy(y_test, linear_pred, 9.0),
        accuracy_td=threshold_accuracy(y_test, linear_pred, 20.0)))

    for n_estimators in (25, 100, 300):
        predictor = ReadingTimePredictor(
            n_estimators=n_estimators, interest_threshold=None)
        predictor.fit_arrays(x_train, y_train)
        predicted = predictor.predict(x_test)
        rows.append(PredictorRow(
            model=f"GBRT M={n_estimators}",
            accuracy_tp=threshold_accuracy(y_test, predicted, 9.0),
            accuracy_td=threshold_accuracy(y_test, predicted, 20.0)))
    return PredictorAblation(rows=rows)


def interest_threshold_ablation(trace_config: Optional[TraceConfig] = None,
                                split_seed: int = 7) -> AlphaAblation:
    dataset = generate_trace(trace_config).filter_reading_time()
    total = len(dataset)
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
        accuracy = threshold_accuracy(y_test,
                                      predictor.predict(x_test), 9.0)
        rows.append(AlphaRow(alpha=alpha, accuracy_tp=accuracy,
                             coverage=len(kept) / total))
    return AlphaAblation(rows=rows)


def carrier_ablation(reading_time: float = 20.0,
                     page_name: str = "espn.go.com/sports"
                     ) -> CarrierAblation:
    page = find_page(page_name)
    rows: List[CarrierRow] = []
    for carrier, t1, t2 in CARRIER_PRESETS:
        config = replace(ExperimentConfig(), rrc=RrcConfig(t1=t1, t2=t2))
        comparison = compare_engines(page, reading_time=reading_time,
                                     config=config)
        rows.append(CarrierRow(carrier=carrier, t1=t1, t2=t2,
                               energy_saving=comparison.energy_saving))
    return CarrierAblation(rows=rows, reading_time=reading_time)
