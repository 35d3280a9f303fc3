"""Fig. 16 policy evaluation machinery."""

import pytest

from repro.core.policy_eval import PolicyEvaluator
from repro.prediction.predictor import ReadingTimePredictor
from repro.traces.generator import TraceConfig


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


def test_analytic_accounting_matches_event_driven_replay(evaluator):
    """Validation: the per-record analytic accounting (profiles + tail
    math) agrees with a full discrete-event replay of the same pageview
    within a small tolerance (RIL hop latency, sampling edges)."""
    from repro.browser.energy_aware import EnergyAwareEngine
    from repro.rrc.states import RrcState
    from repro.rrc.tail import promotion_energy

    record = next(r for r in evaluator.eval_set if r.reading_time > 25.0)
    reading = min(record.reading_time, 60.0)
    alpha = evaluator.config.policy.interest_threshold
    profile = evaluator._profile(record.page_name, "energy-aware")

    # Analytic: IDLE-start promotion + stripped load + reading with a
    # switch at alpha.
    read_energy, state = evaluator._reading_energy_aware(
        profile, reading, switch_at=alpha)
    analytic = (promotion_energy(RrcState.IDLE, evaluator.config.rrc)
                + profile.loading_energy + read_energy)
    assert state is RrcState.IDLE

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
