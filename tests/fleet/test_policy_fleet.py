"""Batched Algorithm-2 decisions vs the scalar policies — bitwise."""

import numpy as np

from repro.core.config import PolicyConfig
from repro.fleet.policy import switch_decisions, threshold_fractions
from repro.prediction.policy import PredictivePolicy
from repro.prediction.predictor import ReadingTimePredictor
from tests.oracles import policy as oracle


def _trained_predictor(seed=17, n=200):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    y = np.abs(3.0 * x[:, 0] - x[:, 2] + rng.normal(scale=0.5, size=n)) \
        + 0.5
    predictor = ReadingTimePredictor(n_estimators=60,
                                     interest_threshold=None)
    return predictor.fit_arrays(x, y), x


def test_batched_prediction_bitwise_equals_scalar_traversal():
    """predict(X)[i] and predict_one(X[i]) accumulate init + Σ lr·leaf
    in the same order; the results must be equal to the last bit."""
    predictor, x = _trained_predictor()
    batched = predictor.predict(x)
    for i in range(x.shape[0]):
        assert batched[i] == predictor.predict_one(x[i])


def test_switch_decisions_match_policy_decide():
    predictor, x = _trained_predictor(seed=5)
    predictions = predictor.predict(x)
    for mode in ("power", "delay"):
        config = PolicyConfig(mode=mode, power_threshold=9.0,
                              delay_threshold=20.0)
        policy = PredictivePolicy(predictor, config)
        batched = switch_decisions(predictions, mode,
                                   config.power_threshold,
                                   config.delay_threshold)
        for i in range(x.shape[0]):
            assert bool(batched[i]) == policy.decide(x[i], 0.0) \
                .switch_to_idle


def test_threshold_fractions_bitwise_equal_scalar_means():
    rng = np.random.default_rng(8)
    times = rng.weibull(0.6, size=5000) * 18.0
    # Plant exact threshold collisions so side='left' is exercised.
    times[:10] = 9.0
    thresholds = [2.0, 9.0, 20.0]
    assert threshold_fractions(times, thresholds) \
        == oracle.threshold_fractions(times, thresholds)


def test_power_mode_is_a_superset_of_delay_mode():
    predictions = np.array([1.0, 9.5, 15.0, 20.0, 25.0])
    power = switch_decisions(predictions, "power", 9.0, 20.0)
    delay = switch_decisions(predictions, "delay", 9.0, 20.0)
    assert power.tolist() == [False, True, True, True, True]
    assert delay.tolist() == [False, False, False, False, True]
    assert (power | delay).tolist() == power.tolist()
