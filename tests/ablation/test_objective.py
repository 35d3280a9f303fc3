"""Scenario evaluation: determinism, knob coupling, population metrics."""

import pytest

from repro.ablation.components import STOCK_SETUP, VariantSetup
from repro.ablation.objective import (PopulationSpec, Scenario,
                                      _load_page, evaluate_setup,
                                      reference_metrics)
from repro.browser.original import OriginalEngine
from repro.core.session import browse_and_read
from repro.faults.injector import FaultPlan
from repro.webpages.corpus import find_page

#: One cheap page, three readings spanning the Tp break-even.
TINY = Scenario(profile="ideal", pages=("www.motors.ebay.com",),
                reading_times=(2.0, 9.0, 30.0))


def test_scenario_validation():
    with pytest.raises(KeyError):
        Scenario(profile="moonbase")
    with pytest.raises(ValueError):
        Scenario(pages=())
    with pytest.raises(ValueError):
        Scenario(reading_times=())
    with pytest.raises(ValueError):
        Scenario(reading_times=(-1.0,))


def test_fingerprint_is_json_stable():
    import json

    fp = TINY.fingerprint()
    assert json.loads(json.dumps(fp)) == fp
    with_pop = Scenario(profile="ideal",
                        population=PopulationSpec(n_users=50))
    assert "population" in with_pop.fingerprint()
    assert "population" not in TINY.fingerprint()


def test_at_fidelity_takes_a_prefix():
    cheap = TINY.at_fidelity(2)
    assert cheap.reading_times == (2.0, 9.0)
    assert cheap.fingerprint() != TINY.fingerprint()
    with pytest.raises(ValueError):
        TINY.at_fidelity(0)


def test_evaluation_is_deterministic():
    a = evaluate_setup(VariantSetup(), TINY, eval_seed=123)
    b = evaluate_setup(VariantSetup(), TINY, eval_seed=123)
    assert a == b


def test_gbrt_like_noise_depends_on_the_seed():
    noisy = VariantSetup(predictor="gbrt-like")
    a = evaluate_setup(noisy, TINY, eval_seed=1)
    b = evaluate_setup(noisy, TINY, eval_seed=2)
    assert a != b  # prediction noise differs
    # while the oracle is seed-free
    assert evaluate_setup(VariantSetup(), TINY, eval_seed=1) \
        == evaluate_setup(VariantSetup(), TINY, eval_seed=2)


def test_predictor_levels_move_the_switch_rate():
    never = evaluate_setup(VariantSetup(predictor="never-switch"),
                           TINY, 7)
    always = evaluate_setup(VariantSetup(predictor="always-switch"),
                            TINY, 7)
    oracle = evaluate_setup(VariantSetup(), TINY, 7)
    assert never["switch_rate"] == 0.0
    # always-switch switches every unit the user stays past alpha
    assert always["switch_rate"] >= oracle["switch_rate"]
    # eager switching pays the promotion penalty at the next click
    assert always["delay"] >= oracle["delay"]


def test_baseline_beats_the_stock_browser():
    metrics = evaluate_setup(VariantSetup(), TINY, 7)
    assert metrics["energy_saving"] > 0.10
    stock = evaluate_setup(STOCK_SETUP, TINY, 7)
    assert stock["energy"] > metrics["energy"]
    assert stock["energy_saving"] == pytest.approx(0.0)


def test_timers_couple_into_energy_without_fast_dormancy():
    """With the radio left to its timers, longer T1/T2 burn more tail
    energy — the knob the search layer exploits."""
    slow = evaluate_setup(VariantSetup(fast_dormancy=False,
                                       t1=6.0, t2=20.0), TINY, 7)
    fast = evaluate_setup(VariantSetup(fast_dormancy=False,
                                       t1=2.0, t2=8.0), TINY, 7)
    assert fast["energy"] < slow["energy"]
    # ...but short timers raise the next-click promotion delay.
    assert fast["delay"] >= slow["delay"]


def test_reference_metrics_memoised():
    first = reference_metrics(TINY)
    assert reference_metrics(TINY) is first


def test_population_adds_drop_probability():
    scenario = Scenario(profile="ideal",
                        pages=("www.motors.ebay.com",),
                        reading_times=(2.0, 9.0),
                        population=PopulationSpec(
                            n_users=400, n_channels=20,
                            horizon=600.0, mean_interval=10.0))
    metrics = evaluate_setup(VariantSetup(), scenario, 7)
    assert 0.0 <= metrics["drop_probability"] <= 1.0
    bare = evaluate_setup(VariantSetup(), TINY, 7)
    assert "drop_probability" not in bare


def test_population_validation():
    with pytest.raises(ValueError):
        PopulationSpec(n_users=0)
    with pytest.raises(ValueError):
        PopulationSpec(horizon=-1.0)


def test_load_page_survives_a_failed_transfer():
    """On cell_edge at page seed 0 the stock browser loses one of cnn's
    14 transfers for good.  Its ``completed_at`` is None, which used to
    raise TypeError; the reading anchor is the last byte that arrived."""
    session = browse_and_read(find_page("cnn"), OriginalEngine,
                              reading_time=0.0,
                              config=STOCK_SETUP.to_config(),
                              faults=FaultPlan.named("cell_edge", seed=0))
    transfers = session.load.transfers
    assert [t.label for t in transfers if t.completed_at is None] \
        == ["m-cnn/img0"]
    assert len(transfers) == 14

    load = _load_page("cnn", STOCK_SETUP, "cell_edge", 0)
    last_byte = max(t.completed_at for t in transfers
                    if t.completed_at is not None)
    assert load.tail_offset == (session.load.started_at
                                + session.load.load_complete_time
                                - last_byte)
    assert load.tail_offset >= 0.0
