"""Batched tune engine: cold vs warm halving search.

The acceptance row for the batched evaluator: a halving search over the
α/Tp thresholds at cell edge.  Threshold-only sweeps share one load
projection, so the batched path runs its discrete-event loads once per
projection.  These rows record the cold and warm wall times, the
load-cache hit rate and the population-objective throughput through
the fleet block kernel.
"""

from repro.ablation.objective import (
    _REFERENCE_MEMO,
    PopulationSpec,
    Scenario,
    load_cache_stats,
    reset_load_cache,
)
from repro.ablation.search import Parameter, SearchSpace, halving_search
from repro.runtime.cache import ResultCache

#: One cell-edge page over the full default reading grid — the
#: fidelity ladder the acceptance criteria name.
SCENARIO = Scenario(profile="cell_edge", pages=("www.motors.ebay.com",),
                    reading_times=(2.0, 5.0, 9.0, 15.0, 30.0, 60.0))

#: α/Tp only: every trial shares one load projection.
SPACE = SearchSpace((Parameter("alpha", 0.5, 4.0),
                     Parameter("tp", 2.0, 18.0)))

N_TRIALS = 8

POPULATION = Scenario(
    profile="ideal", pages=("www.motors.ebay.com",),
    reading_times=(2.0, 9.0, 30.0),
    population=PopulationSpec(n_users=600, n_channels=30,
                              horizon=1200.0, mean_interval=10.0))


def _fresh_process_state() -> None:
    _REFERENCE_MEMO.clear()
    reset_load_cache()


def _search(trace_path, cache=None, scenario=SCENARIO, space=SPACE,
            n_trials=N_TRIALS, objective="energy"):
    return halving_search(scenario, space=space, n_trials=n_trials,
                          objective=objective, seed=97, cache=cache,
                          trace_path=trace_path)


def _publish_load_stats(benchmark) -> None:
    stats = load_cache_stats()
    hits = stats["memo_hits"] + stats["disk_hits"]
    lookups = hits + stats["loads"]
    benchmark.extra_info["load_cache_hit_rate"] = (
        hits / lookups if lookups else 0.0)
    benchmark.extra_info["page_loads"] = stats["loads"]


def test_ablation_search_halving_cold(benchmark, tmp_path):
    """Batched path, empty caches: loads run once per projection, not
    once per trial per rung."""
    _fresh_process_state()
    cache = ResultCache(tmp_path / "tune-cache")
    result = benchmark.pedantic(
        _search, args=(tmp_path / "cold.jsonl",),
        kwargs={"cache": cache}, rounds=1, iterations=1)
    _publish_load_stats(benchmark)
    assert result.best is not None
    assert result.n_cached == 0
    # Two discrete-event loads in total, whatever the trial count:
    # every trial shares the baseline projection, plus the stock
    # reference's projection.
    assert load_cache_stats()["loads"] == 2


def test_ablation_search_halving_warm(benchmark, tmp_path):
    """Every cell served from the content-addressed cache, every load
    from the projection cache."""
    cache = ResultCache(tmp_path / "tune-cache")
    _fresh_process_state()
    cold = _search(tmp_path / "prewarm.jsonl", cache=cache)
    _fresh_process_state()
    warm = benchmark.pedantic(
        _search, args=(tmp_path / "warm.jsonl",),
        kwargs={"cache": cache}, rounds=1, iterations=1)
    _publish_load_stats(benchmark)
    evaluated = sum(1 for trial in warm.trials if trial.valid)
    benchmark.extra_info["cache_hit_rate"] = (
        warm.n_cached / evaluated if evaluated else 0.0)
    assert warm.n_cached == evaluated
    assert warm.report() == cold.report()
    assert load_cache_stats()["loads"] <= 1  # at most the stock ref


def test_ablation_search_population(benchmark, tmp_path):
    """Population-objective throughput: one M/G/N CapacitySimulator.run
    per trial (work_units = sessions)."""
    _fresh_process_state()
    result = benchmark.pedantic(
        _search, args=(tmp_path / "pop.jsonl",),
        kwargs={"scenario": POPULATION, "n_trials": 4,
                "objective": "drop_probability"},
        rounds=1, iterations=1)
    _publish_load_stats(benchmark)
    assert result.best is not None
    assert "drop_probability" in result.best.metrics
