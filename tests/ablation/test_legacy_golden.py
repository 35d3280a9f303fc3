"""Golden equivalence: the five ablation studies must reproduce the
original study implementations bit-for-bit.

The bodies as first written live on as ``tests/oracles/legacy.py``.
These tests run both and compare the full result objects and their
rendered reports.
"""

from repro.core.config import ExperimentConfig, RrcConfig
from repro.experiments.ablations import (
    carrier_ablation,
    interest_threshold_ablation,
    predictor_ablation,
    reorganisation_ablation,
    timer_ablation,
)
from repro.traces.generator import TraceConfig
from tests.oracles import legacy

#: Small synthetic trace: enough structure for stable model metrics.
SMALL = TraceConfig(n_users=14, mean_views_per_user=110,
                    catalog_size=40, seed=31)


def test_reorganisation_matches_reference():
    ported = reorganisation_ablation()
    reference = legacy.reorganisation_ablation()
    assert ported == reference
    assert ported.report() == reference.report()


def test_reorganisation_matches_reference_with_custom_config():
    config = ExperimentConfig(rrc=RrcConfig(t1=6.0, t2=12.0))
    assert reorganisation_ablation(config) \
        == legacy.reorganisation_ablation(config)


def test_timer_matches_reference():
    ported = timer_ablation(reading_time=8.0)
    reference = legacy.timer_ablation(reading_time=8.0)
    assert ported == reference
    assert ported.report() == reference.report()


def test_predictor_matches_reference():
    ported = predictor_ablation(SMALL)
    reference = legacy.predictor_ablation(SMALL)
    assert ported == reference
    assert ported.report() == reference.report()


def test_alpha_matches_reference():
    ported = interest_threshold_ablation(SMALL)
    reference = legacy.interest_threshold_ablation(SMALL)
    assert ported == reference
    assert ported.report() == reference.report()


def test_carrier_matches_reference():
    ported = carrier_ablation(reading_time=15.0)
    reference = legacy.carrier_ablation(reading_time=15.0)
    assert ported == reference
    assert ported.report() == reference.report()
