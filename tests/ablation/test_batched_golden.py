"""Golden gates for the batched trial evaluator.

``tests/oracles/ablation.py`` is the scalar per-unit reference — one
discrete-event load per page per call, no projection memo, no grid
scoring, a ``CapacitySimulator`` per population cell.  Patching it over
the engine's evaluator, every comparison here proves the batched path
produces exactly the same bytes: matrix reports, tune JSONL traces and
reports (including a population scenario), and the raw metrics dicts.
The Hypothesis properties pin the load-cache-key contract: the key is
exactly the page, the channel (which carries the page seed only where a
fault plan is drawn) and the load-relevant projection, so setups
differing only in α/Tp/Td/mode or the predictor level share one cached
load.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ablation.engine as engine_module
from repro.ablation.components import VariantSetup
from repro.ablation.engine import run_matrix
from repro.ablation.objective import (
    Scenario,
    _load_page,
    evaluate_setup,
    evaluate_setups,
    load_cache_key,
    load_cache_stats,
    load_memo_key,
    load_projection,
    reset_load_cache,
)
from repro.ablation.search import halving_search
from repro.faults.profiles import PROFILE_ORDER
from repro.runtime.cache import ResultCache
from tests import golden
from tests.oracles import ablation as oracle

TINY = golden.tiny_scenario()
EDGE = golden.edge_scenario()
POP = golden.population_scenario()
THRESHOLD_SPACE = golden.threshold_space()


@pytest.fixture(autouse=True)
def fresh_state():
    reset_load_cache()
    yield
    reset_load_cache()


def _slow(monkeypatch) -> None:
    """Route the engine through the scalar oracle with all memoised
    state dropped, so the slow pass recomputes everything from scratch."""
    monkeypatch.setattr(engine_module, "evaluate_setup",
                        oracle.evaluate_setup)
    monkeypatch.setattr(engine_module, "evaluate_setups",
                        oracle.evaluate_setups)
    reset_load_cache()


SETUPS = (
    VariantSetup(reorganisation=True, fast_dormancy=True,
                 predictor="gbrt-like"),
    VariantSetup(reorganisation=False, intermediate_display=False,
                 fast_dormancy=True, predictor="oracle", alpha=3.0,
                 tp=12.0, mode="power"),
    VariantSetup(reorganisation=True, fast_dormancy=False,
                 predictor="never-switch", t1=2.0, t2=10.0),
    VariantSetup(reorganisation=True, fast_dormancy=True,
                 predictor="always-switch"),
)


def test_batched_equals_per_trial():
    pairs = [(setup, 1000 + i) for i, setup in enumerate(SETUPS)]
    batched = evaluate_setups(pairs, TINY)
    singles = [evaluate_setup(setup, TINY, seed) for setup, seed in pairs]
    assert batched == singles


def test_matrix_report_byte_identical_slow_vs_fast(monkeypatch):
    fast = run_matrix("loo", TINY)
    _slow(monkeypatch)
    slow = run_matrix("loo", TINY)
    assert fast.report() == slow.report()
    assert [run.metrics for run in fast.runs] == \
        [run.metrics for run in slow.runs]
    assert [run.seed for run in fast.runs] == \
        [run.seed for run in slow.runs]


def test_tune_trace_byte_identical_slow_vs_fast(tmp_path, monkeypatch):
    kwargs = dict(space=THRESHOLD_SPACE, n_trials=5, objective="energy",
                  seed=123)
    fast = halving_search(EDGE, trace_path=tmp_path / "fast.jsonl",
                          **kwargs)
    _slow(monkeypatch)
    slow = halving_search(EDGE, trace_path=tmp_path / "slow.jsonl",
                          **kwargs)
    assert (tmp_path / "fast.jsonl").read_bytes() == \
        (tmp_path / "slow.jsonl").read_bytes()
    assert fast.report() == slow.report()
    assert fast.to_dict() == slow.to_dict()


def test_population_metrics_byte_identical():
    fast = [evaluate_setup(setup, POP, 42 + i)
            for i, setup in enumerate(SETUPS)]
    reset_load_cache()
    slow = [oracle.evaluate_setup(setup, POP, 42 + i)
            for i, setup in enumerate(SETUPS)]
    assert fast == slow
    assert all("drop_probability" in metrics for metrics in fast)


def test_population_tune_trace_byte_identical(tmp_path, monkeypatch):
    kwargs = dict(space=THRESHOLD_SPACE, n_trials=4,
                  objective="drop_probability", seed=7)
    fast = halving_search(POP, trace_path=tmp_path / "fast.jsonl",
                          **kwargs)
    _slow(monkeypatch)
    slow = halving_search(POP, trace_path=tmp_path / "slow.jsonl",
                          **kwargs)
    assert (tmp_path / "fast.jsonl").read_bytes() == \
        (tmp_path / "slow.jsonl").read_bytes()
    assert fast.report() == slow.report()
    assert fast.to_dict() == slow.to_dict()


def test_threshold_sweep_shares_one_load():
    base = VariantSetup(reorganisation=True, fast_dormancy=True,
                        predictor="oracle")
    variants = [replace(base, alpha=alpha, tp=tp, predictor=predictor)
                for alpha, tp, predictor in
                ((0.5, 4.0, "oracle"), (2.0, 9.0, "gbrt-like"),
                 (3.5, 15.0, "always-switch"), (1.0, 6.0, "oracle"))]
    for i, variant in enumerate(variants):
        evaluate_setup(variant, TINY, 50 + i)
    stats = load_cache_stats()
    # One load for the shared projection, one for the stock reference;
    # every later trial is a memo hit.
    assert stats["loads"] == 2
    assert stats["memo_hits"] == len(variants) - 1


def test_disk_cache_roundtrip_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    setup = VariantSetup(reorganisation=True, fast_dormancy=True,
                         predictor="gbrt-like")
    first = evaluate_setup(setup, TINY, 9, load_cache=cache)
    reset_load_cache()
    second = evaluate_setup(setup, TINY, 9, load_cache=cache)
    stats = load_cache_stats()
    assert stats["loads"] == 0
    assert stats["disk_hits"] == 2  # the variant's load + the stock ref
    assert first == second


# ----------------------------------------------------------------------
# The projection contract, property-tested.
# ----------------------------------------------------------------------

#: Scoring-only knobs: consulted strictly after the load.  Td stays
#: >= Tp per PolicyConfig's validation.
_SCORING_ONLY = st.fixed_dictionaries({
    "alpha": st.floats(0.5, 4.0),
    "tp": st.floats(2.0, 18.0),
    "td": st.floats(18.0, 40.0),
    "mode": st.sampled_from(["power", "delay"]),
    "predictor": st.sampled_from(["oracle", "gbrt-like",
                                  "always-switch", "never-switch"]),
})

#: Load-relevant knobs: anything here must change the cache key.
_LOAD_RELEVANT = st.fixed_dictionaries({}, optional={
    "reorganisation": st.booleans(),
    "intermediate_display": st.booleans(),
    "fast_dormancy": st.booleans(),
    "t1": st.floats(1.0, 8.0),
    "t2": st.floats(4.0, 20.0),
})

_BASE = VariantSetup(reorganisation=True, fast_dormancy=True,
                     predictor="oracle")


@settings(max_examples=50, deadline=None)
@given(overrides=_SCORING_ONLY)
def test_scoring_only_knobs_share_the_load_key(overrides):
    variant = replace(_BASE, **overrides)
    assert load_projection(variant) == load_projection(_BASE)
    assert load_cache_key("p", "ideal", 1, variant) == \
        load_cache_key("p", "ideal", 1, _BASE)


@settings(max_examples=100, deadline=None)
@given(load_overrides=_LOAD_RELEVANT, scoring_overrides=_SCORING_ONLY)
def test_key_changes_exactly_with_the_projection(load_overrides,
                                                 scoring_overrides):
    variant = replace(_BASE, **{**load_overrides, **scoring_overrides})
    same_projection = load_projection(variant) == load_projection(_BASE)
    same_key = (load_cache_key("p", "ideal", 1, variant)
                == load_cache_key("p", "ideal", 1, _BASE))
    assert same_key == same_projection
    moved = {name for name, value in load_overrides.items()
             if getattr(_BASE, name) != value}
    assert same_projection == (not moved)


# ----------------------------------------------------------------------
# The channel half of the key: the page seed counts only where a fault
# plan is drawn from it.
# ----------------------------------------------------------------------

#: Page seeds as ``spawn_seeds`` hands them out (32-bit).
_PAGE_SEEDS = st.integers(0, 2 ** 32 - 1)

#: Every profile that impairs the channel, so draws a seeded fault plan.
_IMPAIRING = tuple(name for name in PROFILE_ORDER if name != "ideal")


@settings(max_examples=50, deadline=None)
@given(s1=_PAGE_SEEDS, s2=_PAGE_SEEDS, overrides=_LOAD_RELEVANT)
def test_ideal_keys_ignore_the_page_seed(s1, s2, overrides):
    setup = replace(_BASE, **overrides)
    assert load_cache_key("p", "ideal", s1, setup) == \
        load_cache_key("p", "ideal", s2, setup)
    assert load_memo_key("p", "ideal", s1, setup) == \
        load_memo_key("p", "ideal", s2, setup)


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(_PAGE_SEEDS, min_size=2, max_size=2, unique=True),
       overrides=_LOAD_RELEVANT)
def test_impairing_keys_change_with_the_page_seed(seeds, overrides):
    setup = replace(_BASE, **overrides)
    s1, s2 = seeds
    assert _IMPAIRING
    for profile in _IMPAIRING:
        assert load_cache_key("p", profile, s1, setup) != \
            load_cache_key("p", profile, s2, setup)
        assert load_memo_key("p", profile, s1, setup) != \
            load_memo_key("p", profile, s2, setup)


def test_ideal_load_is_the_same_under_any_page_seed():
    """The soundness half: on ``ideal`` the seed never reaches the
    discrete-event load, so sharing one key across seeds is exact."""
    for setup in (VariantSetup(), _BASE):
        assert _load_page("cnn", setup, "ideal", 11) == \
            _load_page("cnn", setup, "ideal", 2 ** 31 + 5)


#: A cold request stream: each call brings a fresh scenario seed and
#: fresh T1/T2, so every variant load is unseen.
_STREAM_PAGES = ("cnn", "www.motors.ebay.com")
_STREAM = tuple(
    (3000 + k, VariantSetup(reorganisation=True, fast_dormancy=True,
                            predictor="gbrt-like", t1=2.0 + k,
                            t2=9.0 + 2 * k), 700 + k)
    for k in range(3))


def _stream_scenario(profile: str, seed: int) -> Scenario:
    return Scenario(profile=profile, pages=_STREAM_PAGES,
                    reading_times=(2.0, 9.0, 30.0), seed=seed)


@pytest.mark.parametrize("profile, expected_loads", [
    ("ideal", len(_STREAM) * len(_STREAM_PAGES) + len(_STREAM_PAGES)),
    ("suburban", 2 * len(_STREAM) * len(_STREAM_PAGES)),
])
def test_cold_stream_shares_only_seed_free_stock_loads(profile,
                                                       expected_loads):
    """On ``ideal`` the stock reference is simulated once for the whole
    stream; on an impaired channel every seed still draws its own
    plan.  Either way the metrics equal the memo-less oracle's."""
    fast = [evaluate_setups([(setup, eval_seed)],
                            _stream_scenario(profile, seed))
            for seed, setup, eval_seed in _STREAM]
    assert load_cache_stats()["loads"] == expected_loads
    reset_load_cache()
    slow = [oracle.evaluate_setups([(setup, eval_seed)],
                                   _stream_scenario(profile, seed))
            for seed, setup, eval_seed in _STREAM]
    assert fast == slow

