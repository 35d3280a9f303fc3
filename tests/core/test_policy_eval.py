"""Fig. 16 policy evaluation machinery."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from repro.core.policy_eval import PolicyEvaluator
from repro.prediction.predictor import ReadingTimePredictor
from repro.traces.generator import TraceConfig
from tests.oracles import policy as oracle


@pytest.fixture(scope="module")
def evaluator():
    """A reduced evaluator: fewer users/pages, same machinery."""
    config = TraceConfig(n_users=10, mean_views_per_user=60,
                         catalog_size=16, seed=77)
    return PolicyEvaluator(trace_config=config, train_fraction=0.6)


@pytest.fixture(scope="module")
def results(evaluator):
    return {case.name: case for case in evaluator.evaluate()}


def test_train_eval_split_by_user(evaluator):
    train_users = {r.user_id for r in evaluator.train_set}
    eval_users = {r.user_id for r in evaluator.eval_set}
    assert not train_users & eval_users
    assert train_users and eval_users


def test_baseline_has_zero_savings(results):
    base = results["original"]
    assert base.power_saving == 0.0
    assert base.delay_saving == 0.0
    assert base.switch_rate == 0.0


def test_all_six_cases_present(results):
    assert set(results) == {
        "original", "original-always-off", "energy-aware-always-off",
        "accurate-9", "predict-9", "accurate-20", "predict-20"}


def test_original_always_off_loses_delay(results):
    """Paper: −1.47 % delay — promoting from IDLE every page costs more
    than it saves."""
    assert results["original-always-off"].delay_saving < 0


def test_original_always_off_saves_least_power(results):
    weakest = min((case for name, case in results.items()
                   if name != "original"),
                  key=lambda case: case.power_saving)
    assert weakest.name == "original-always-off"


def test_accurate_9_saves_most_power(results):
    best = max(results.values(), key=lambda case: case.power_saving)
    assert best.name == "accurate-9"


def test_accurate_20_saves_most_delay(results):
    best = max(results.values(), key=lambda case: case.delay_saving)
    assert best.name == "accurate-20"


def test_predictions_bounded_by_oracles(results):
    assert results["predict-9"].power_saving <= \
        results["accurate-9"].power_saving + 1e-9
    assert results["predict-20"].delay_saving <= \
        results["accurate-20"].delay_saving + 1e-9


def test_power_mode_switches_more_than_delay_mode(results):
    assert results["accurate-9"].switch_rate > \
        results["accurate-20"].switch_rate


def test_always_off_switch_rate_is_total(results):
    assert results["energy-aware-always-off"].switch_rate == 1.0


def test_energy_aware_cases_beat_original_always_off(results):
    for name in ("energy-aware-always-off", "accurate-9", "predict-9",
                 "accurate-20", "predict-20"):
        assert results[name].power_saving > \
            results["original-always-off"].power_saving


def test_profiles_strip_exactly_one_promotion(evaluator):
    profile = evaluator._profile(
        next(iter(evaluator.eval_set)).page_name, "original")
    assert profile.load_time > 0
    assert profile.loading_energy > 0


def test_train_fraction_validated():
    with pytest.raises(ValueError):
        PolicyEvaluator(train_fraction=1.0)


def test_empty_evaluation_split_rejected():
    # One user rounds to one training user and no evaluation user.
    with pytest.raises(ValueError, match=r"n_users=1 at train_fraction=0.7 "
                       r"splits into 1 training users \(\d+ records\) and "
                       r"0 evaluation users \(0 records\)"):
        PolicyEvaluator(TraceConfig(n_users=1))


def test_empty_training_split_rejected():
    with pytest.raises(ValueError, match=r"n_users=2 at train_fraction=0.2 "
                       r"splits into 0 training users \(0 records\) and "
                       r"2 evaluation users"):
        PolicyEvaluator(TraceConfig(n_users=2), train_fraction=0.2)


@pytest.mark.parametrize("config", [
    # Training records, none past alpha.
    TraceConfig(n_users=2, mean_views_per_user=1, catalog_size=6,
                seed=180),
    # Training records, one past alpha.
    TraceConfig(n_users=3, mean_views_per_user=1, mean_session_length=1.0,
                catalog_size=6, seed=1),
], ids=["none-past-alpha", "one-past-alpha"])
def test_training_split_with_under_two_records_past_alpha_rejected(config):
    with pytest.raises(ValueError, match=r"at least two records past the "
                       r"interest threshold alpha=2 s, it has [01]$"):
        PolicyEvaluator(config, train_fraction=0.5)


#: A small trace whose evaluation set holds a one-view session.
ONE_VIEW_SESSION = TraceConfig(n_users=3, mean_views_per_user=8,
                               catalog_size=6, mean_session_length=1.5,
                               seed=1)


def _small_evaluator(config: TraceConfig, train_fraction: float):
    try:
        return PolicyEvaluator(config, train_fraction=train_fraction)
    except ValueError as error:
        # An empty evaluation split, or a training split with fewer
        # than two visits past α, which the predictor cannot fit.
        if "the evaluation split must be non-empty" not in str(error):
            raise
        reject()


def test_oracle_example_holds_a_one_view_session():
    evaluator = PolicyEvaluator(ONE_VIEW_SESSION, train_fraction=0.5)
    lengths = [len(s.records) for s in evaluator.eval_set.sessions()]
    assert 1 in lengths and max(lengths) > 1


@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(min_value=2, max_value=6),
       views=st.integers(min_value=1, max_value=12),
       session_length=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(min_value=0, max_value=10_000),
       train_fraction=st.floats(min_value=0.2, max_value=0.8))
@example(n_users=3, views=8, session_length=1.5, seed=1,
         train_fraction=0.5)
def test_array_pass_matches_per_record_loop(n_users, views, session_length,
                                            seed, train_fraction):
    """All seven Table-6 cases, scored by the one array pass and by the
    per-record loop it replaced, agree exactly: totals, delays and
    switch rates (and so the savings)."""
    config = TraceConfig(n_users=n_users, mean_views_per_user=views,
                         catalog_size=6, mean_session_length=session_length,
                         seed=seed)
    evaluator = _small_evaluator(config, train_fraction)
    cases = evaluator.evaluate()
    with mock.patch.object(PolicyEvaluator, "_run_case", oracle.run_case):
        reference = evaluator.evaluate()
    assert [c.name for c in cases] == [c.name for c in reference]
    for case, twin in zip(cases, reference):
        assert case.total_energy == twin.total_energy, case.name
        assert case.total_delay == twin.total_delay, case.name
        assert case.switch_rate == twin.switch_rate, case.name
        assert type(case.total_energy) is float


def test_analytic_accounting_matches_event_driven_replay(evaluator):
    """Validation: the per-record analytic accounting (profiles + tail
    math) agrees with a full discrete-event replay of the same pageview
    within a small tolerance (RIL hop latency, sampling edges)."""
    from repro.browser.energy_aware import EnergyAwareEngine
    from repro.rrc.tail import (STATE_IDLE, promotion_energy_grid,
                                reading_phase_grid)

    record = next(r for r in evaluator.eval_set if r.reading_time > 25.0)
    reading = min(record.reading_time, 60.0)
    alpha = evaluator.config.policy.interest_threshold
    profile = evaluator._profile(record.page_name, "energy-aware")
    rrc = evaluator.config.rrc

    # Analytic: IDLE-start promotion + stripped load + reading with a
    # switch at alpha, anchored at the channel release.
    read_energy, state = reading_phase_grid(
        np.array([profile.release_offset_at_open]), np.array([reading]),
        alpha, np.array([True]), 0.0, rrc.t2, rrc)
    analytic = (float(promotion_energy_grid(STATE_IDLE, rrc))
                + profile.loading_energy + float(read_energy[0]))
    assert state[0] == STATE_IDLE

    # Event-driven replay: real engine, real radio, real RIL, with the
    # dormancy request scheduled exactly alpha after the page opens.
    from repro.core.session import Handset
    from repro.traces.generator import build_catalog
    from repro.webpages.generator import generate_page
    catalog = {c.name: c for c in build_catalog(evaluator.trace_config)}
    page = generate_page(catalog[record.page_name].spec)
    device = Handset(evaluator.config)
    engine = device.make_engine(EnergyAwareEngine, page)
    loads = []

    def opened(result):
        loads.append(result)
        device.sim.schedule(alpha,
                            lambda: device.ril.request_fast_dormancy())

    engine.load(opened)
    device.sim.run()
    open_end = loads[0].started_at + loads[0].load_complete_time
    device.sim.run(until=open_end + reading)
    measured = device.accountant.total_energy(0.0, open_end + reading)

    assert measured == pytest.approx(analytic, rel=0.05)


def test_evaluate_makes_one_predict_pass(monkeypatch):
    """predict-9 and predict-20 share one pass over the eval matrix."""
    config = TraceConfig(n_users=10, mean_views_per_user=60,
                         catalog_size=16, seed=77)
    fresh = PolicyEvaluator(trace_config=config, train_fraction=0.6)
    predict = ReadingTimePredictor.predict
    calls = []

    def counting(self, x):
        calls.append(len(x))
        return predict(self, x)

    monkeypatch.setattr(ReadingTimePredictor, "predict", counting)
    fresh.evaluate()
    assert calls == [len(fresh.eval_set)]
