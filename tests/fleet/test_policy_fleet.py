"""Every policy's Algorithm-2 decisions vs the scalar rule — bitwise."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import PolicyConfig
from repro.fleet.policy import switch_decisions, threshold_fractions
from repro.prediction.policy import (AlwaysOffPolicy, NeverOffPolicy,
                                     OraclePolicy, PredictivePolicy)
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


class _TableScorer:
    """A predictor that reads row ``i``'s Tr off a drawn vector: the
    feature matrix is one column of row indices."""

    def __init__(self, predicted):
        self.predicted = np.asarray(predicted, dtype=float)

    def predict(self, x):
        return self.predicted[np.asarray(x, dtype=int)[:, 0]]

    def predict_one(self, row):
        return float(self.predicted[int(row[0])])


def _unchecked_config(mode, power_threshold, delay_threshold):
    """A PolicyConfig that skips ``Tp <= Td`` validation, so the rule
    is exercised on both threshold orders."""
    config = object.__new__(PolicyConfig)
    for name, value in (("interest_threshold", 2.0), ("mode", mode),
                        ("power_threshold", power_threshold),
                        ("delay_threshold", delay_threshold)):
        object.__setattr__(config, name, value)
    return config


@st.composite
def policy_case(draw):
    thresholds = st.floats(0.5, 60.0)
    tp, td = draw(thresholds), draw(thresholds)
    # Half the values sit exactly on a threshold: the rule is strict.
    values = st.one_of(st.sampled_from([tp, td]), st.floats(0.0, 100.0))
    n = draw(st.integers(1, 12))
    predicted = draw(st.lists(values, min_size=n, max_size=n))
    readings = draw(st.lists(values, min_size=n, max_size=n))
    mode = draw(st.sampled_from(["power", "delay"]))
    return mode, tp, td, predicted, readings


@settings(max_examples=150, deadline=None)
@given(policy_case())
@example(("power", 9.0, 20.0, [9.0, 20.0, 9.5], [9.0, 20.0, 21.0]))
@example(("power", 20.0, 9.0, [9.0, 15.0, 20.0], [9.0, 20.0, 25.0]))
@example(("delay", 20.0, 9.0, [9.0, 15.0, 20.0], [9.0, 20.0, 25.0]))
def test_every_policy_matches_the_scalar_rule(case):
    mode, tp, td, predicted, readings = case
    features = np.arange(len(predicted), dtype=float).reshape(-1, 1)
    reading_vec = np.asarray(readings, dtype=float)
    expected = {
        PredictivePolicy(_TableScorer(predicted),
                         _unchecked_config(mode, tp, td)):
            [oracle.switch(t, mode, tp, td) for t in predicted],
        # Accurate-T: the rule fed the true reading time, Td = T.
        OraclePolicy(tp): [oracle.switch(r, "delay", tp, tp)
                           for r in readings],
        AlwaysOffPolicy(): [True] * len(readings),
        NeverOffPolicy(): [False] * len(readings),
    }
    for policy, want in expected.items():
        assert policy.switches(features, reading_vec).tolist() == want
        assert [policy.decide(features[i], readings[i]).switch_to_idle
                for i in range(len(readings))] == want


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
