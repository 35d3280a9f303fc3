"""Golden equivalence: the registry-backed legacy port must reproduce
the original study implementations bit-for-bit.

Each public ablation in ``repro.experiments.ablations`` now delegates to
:mod:`repro.ablation.legacy`; the pre-port bodies live on as
``tests/oracles/legacy.py``.  These tests run both paths and compare
the full result objects and their rendered reports.
"""

import pytest

from repro.core.config import ExperimentConfig, RrcConfig
from repro.experiments.ablations import (
    ALL_ABLATIONS,
    carrier_ablation,
    interest_threshold_ablation,
    predictor_ablation,
    reorganisation_ablation,
    timer_ablation,
)
from repro.ablation.legacy import LEGACY_STUDIES, legacy_registry
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


def test_every_legacy_study_is_ported():
    assert set(LEGACY_STUDIES) == set(ALL_ABLATIONS)


def test_legacy_registry_declares_the_five_components():
    registry = legacy_registry()
    assert registry.names() == [
        "carrier_timers", "interest_threshold", "predictor_model",
        "reorganisation_variant", "timer_preset"]
    # Level order inside each component mirrors the legacy row order.
    assert registry.get("reorganisation_variant").level_names[-1] \
        == "energy-aware (full)"


def test_unknown_legacy_study_raises():
    from repro.ablation.legacy import run_legacy

    with pytest.raises(KeyError):
        run_legacy("nonexistent")
