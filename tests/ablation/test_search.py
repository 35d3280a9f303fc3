"""Search layer: promotion logic, constraints, determinism, resume."""

import pytest

import repro.ablation.search as search_module
from repro.ablation.objective import (PopulationSpec, Scenario,
                                      load_cache_stats, reset_load_cache)
from repro.ablation.search import (Constraint, Parameter, SearchSpace,
                                   default_space, feasible, grid_search,
                                   halving_rungs, halving_search, promote,
                                   random_search)
from repro.runtime.cache import ResultCache
from repro.runtime.observability import collecting

TINY = Scenario(profile="ideal", pages=("www.motors.ebay.com",),
                reading_times=(2.0, 9.0, 30.0))

#: Two knobs keep grid/halving runs cheap while exercising the ladder.
SMALL_SPACE = SearchSpace((
    Parameter("alpha", 0.5, 4.0),
    Parameter("tp", 2.0, 18.0),
))

#: Draws from this space can violate PolicyConfig's Tp <= Td (Td=20):
#: the invalid-by-construction path must record, not redraw.
SPIKY_SPACE = SearchSpace((
    Parameter("tp", 15.0, 25.0),
))

#: One cell-edge page over the full default reading grid: the halving
#: fidelity ladder whose caching the tests below pin.
EDGE_LADDER = Scenario(profile="cell_edge", pages=("www.motors.ebay.com",),
                       reading_times=(2.0, 5.0, 9.0, 15.0, 30.0, 60.0))

POPULATION = Scenario(
    profile="ideal", pages=("www.motors.ebay.com",),
    reading_times=(2.0, 9.0, 30.0),
    population=PopulationSpec(n_users=600, n_channels=30,
                              horizon=1200.0, mean_interval=10.0))


# ----------------------------------------------------------------------
# Pure pieces: space, constraints, promotion, rungs
# ----------------------------------------------------------------------

def test_space_validation_and_canonical_order():
    space = SearchSpace((Parameter("tp", 2.0, 18.0),
                         Parameter("alpha", 0.5, 4.0)))
    assert [p.name for p in space.parameters] == ["alpha", "tp"]
    with pytest.raises(ValueError):
        SearchSpace(())
    with pytest.raises(ValueError):
        SearchSpace((Parameter("a", 0, 1), Parameter("a", 0, 1)))
    with pytest.raises(ValueError):
        Parameter("bad", 5.0, 1.0)
    with pytest.raises(ValueError):
        Parameter("bad", 0.0, 1.0, grid=(2.0,))


def test_grid_values_explicit_and_linspace():
    explicit = Parameter("t1", 1.0, 8.0, grid=(2.0, 4.0))
    assert explicit.grid_values(5) == [2.0, 4.0]
    spread = Parameter("t1", 1.0, 8.0)
    assert spread.grid_values(3) == [1.0, 4.5, 8.0]
    assert spread.grid_values(1) == [4.5]


def test_constraint_filtering():
    budget = Constraint("delay", 1.2)
    assert budget.satisfied({"delay": 1.2})
    assert not budget.satisfied({"delay": 1.21})
    assert not budget.satisfied({"energy": 5.0})  # metric missing
    constraints = (budget, Constraint("drop_probability", 0.05))
    assert feasible({"delay": 1.0, "drop_probability": 0.01},
                    constraints)
    assert not feasible({"delay": 1.0, "drop_probability": 0.99},
                        constraints)
    assert feasible({"anything": 1.0}, ())  # vacuous


def test_promote_feasible_first_then_objective():
    candidates = [
        ("a", 5.0, True),
        ("b", 1.0, False),   # best objective but infeasible
        ("c", 7.0, True),
        ("d", None, True),   # invalid: never promoted
    ]
    assert promote(candidates, eta=2) == ["a", "c"]
    # keep = max(1, 4 // 4) = 1
    assert promote(candidates, eta=4) == ["a"]
    # all infeasible -> still promote by objective
    worst = [("a", 5.0, False), ("b", 1.0, False)]
    assert promote(worst, eta=2) == ["b"]
    # ties broken by key
    tied = [("b", 3.0, True), ("a", 3.0, True)]
    assert promote(tied, eta=2) == ["a"]
    assert promote([("a", None, True)], eta=2) == []
    with pytest.raises(ValueError):
        promote(candidates, eta=1)


def test_halving_rungs_ladder():
    # 6 readings, 16 trials, eta=2 -> 5 rungs, geometric prefix.
    assert halving_rungs(6, 16, 2) == [1, 3, 6]
    assert halving_rungs(3, 8, 2) == [1, 3]
    # final rung always full fidelity, duplicates collapsed
    assert halving_rungs(1, 16, 2) == [1]
    assert halving_rungs(6, 1, 2) == [6]
    with pytest.raises(ValueError):
        halving_rungs(6, 16, 1)


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------

def test_grid_search_deterministic_report():
    one = grid_search(TINY, SMALL_SPACE, points=2)
    two = grid_search(TINY, SMALL_SPACE, points=2)
    assert len(one.trials) == 4
    assert one.report() == two.report()
    assert [t.record() for t in one.trials] \
        == [t.record() for t in two.trials]
    assert one.best is not None


def test_random_search_same_seed_same_trace():
    kwargs = dict(space=SMALL_SPACE, n_trials=4, seed=99)
    one = random_search(TINY, **kwargs)
    two = random_search(TINY, **kwargs)
    assert one.trace() == two.trace()
    assert one.report() == two.report()
    # a different seed draws a different sequence
    other = random_search(TINY, space=SMALL_SPACE, n_trials=4, seed=100)
    assert [t.overrides for t in other.trials] \
        != [t.overrides for t in one.trials]


@pytest.mark.parametrize("points", [0, -3])
def test_grid_search_rejects_points_below_one(points):
    with pytest.raises(ValueError, match="points"):
        grid_search(TINY, SMALL_SPACE, points=points)


def test_constraint_excludes_the_unconstrained_winner():
    free = grid_search(TINY, SMALL_SPACE, points=2)
    budget = free.best.metrics["delay"] - 1e-6  # exclude the winner
    bound = grid_search(TINY, SMALL_SPACE, points=2,
                        constraints=(Constraint("delay", budget),))
    # Grid points don't depend on constraints: same cells evaluated...
    assert [t.overrides for t in bound.trials] \
        == [t.overrides for t in free.trials]
    # ...but the previous winner is now infeasible.
    assert bound.best is None \
        or bound.best.run_id != free.best.run_id
    for trial in bound.trials:
        assert trial.feasible == (trial.valid and
                                  trial.metrics["delay"] <= budget)


def test_invalid_draws_recorded_not_redrawn():
    result = random_search(TINY, SPIKY_SPACE, n_trials=8, seed=3)
    assert len(result.trials) == 8
    invalid = [t for t in result.trials if not t.valid]
    assert invalid, "space straddles Tp<=Td; some draws must be invalid"
    for trial in invalid:
        assert trial.run_id == ""
        assert trial.metrics == {}
        assert not trial.feasible
    if result.best is not None:
        assert result.best.valid


def test_halving_promotes_and_finishes_at_full_fidelity():
    result = halving_search(TINY, SMALL_SPACE, n_trials=4, eta=2,
                            seed=11)
    rungs = sorted({t.rung for t in result.trials})
    assert rungs == [0, 1]          # halving_rungs(3, 4, 2) == [1, 3]
    first = [t for t in result.trials if t.rung == 0]
    final = [t for t in result.trials if t.rung == 1]
    assert len(first) == 4
    assert len(final) == 2          # max(1, 4 // 2) promoted
    assert {t.index for t in final} <= {t.index for t in first}
    assert result.final_rung == 1
    assert result.best is None or result.best.rung == 1


def test_halving_killed_after_rung_zero_resumes_from_the_cache(
        tmp_path, monkeypatch):
    """A search killed after its first rung and rerun on the same
    result cache serves every rung-0 trial from disk and ends with the
    report and trace of an uninterrupted run."""
    kwargs = dict(space=SMALL_SPACE,
                  constraints=(Constraint("delay", 5.0),),
                  n_trials=4, eta=2, seed=11)
    full = halving_search(TINY, **kwargs)
    cache = ResultCache(tmp_path / "cache")
    run_specs = search_module.run_specs
    calls = []

    def killed_after_rung_zero(*args, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("killed after rung 0")
        return run_specs(*args, **kw)

    monkeypatch.setattr(search_module, "run_specs", killed_after_rung_zero)
    with pytest.raises(RuntimeError, match="killed"):
        halving_search(TINY, cache=cache, **kwargs)
    monkeypatch.undo()

    resumed = halving_search(TINY, cache=cache, **kwargs)
    assert resumed.report() == full.report()
    assert resumed.trace() == full.trace()
    rung_zero = [t for t in resumed.trials if t.rung == 0 and t.valid]
    assert rung_zero
    assert resumed.n_cached == len(rung_zero)


def test_search_caches_across_invocations(tmp_path):
    from repro.runtime.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    cold = random_search(TINY, SMALL_SPACE, n_trials=3, seed=5,
                         cache=cache)
    warm = random_search(TINY, SMALL_SPACE, n_trials=3, seed=5,
                         cache=cache)
    assert cold.n_cached == 0
    assert warm.n_cached == len([t for t in warm.trials if t.valid])
    assert warm.report() == cold.report()


def _edge_halving(cache):
    return halving_search(EDGE_LADDER, space=SMALL_SPACE, n_trials=8,
                          objective="energy", seed=97, cache=cache)


def test_cold_halving_search_runs_two_page_loads(tmp_path):
    """An α/Tp-only search shares one load projection: two
    discrete-event loads in all (the baseline projection and the stock
    reference), whatever the trial count."""
    reset_load_cache()
    result = _edge_halving(ResultCache(tmp_path / "cache"))
    assert result.best is not None
    assert result.n_cached == 0
    assert load_cache_stats()["loads"] == 2


def test_warm_halving_search_is_fully_cached(tmp_path):
    """A rerun in a fresh process serves every valid trial from the
    result cache, runs at most the stock reference's load, and prints
    the cold report."""
    cache = ResultCache(tmp_path / "cache")
    reset_load_cache()
    cold = _edge_halving(cache)
    reset_load_cache()
    warm = _edge_halving(cache)
    evaluated = sum(1 for trial in warm.trials if trial.valid)
    assert evaluated > 0
    assert warm.n_cached == evaluated
    assert load_cache_stats()["loads"] <= 1
    assert warm.report() == cold.report()


def test_population_search_records_work_units():
    """The drop-probability objective runs M/G/N capacity work, and
    the kernel counters see it."""
    reset_load_cache()
    with collecting() as window:
        result = halving_search(POPULATION, space=SMALL_SPACE,
                                n_trials=4, objective="drop_probability",
                                seed=97)
    assert result.best is not None
    assert "drop_probability" in result.best.metrics
    assert window.snapshot().work_units > 0


def test_default_space_covers_the_paper_knobs():
    names = [p.name for p in default_space().parameters]
    assert names == ["alpha", "t1", "t2", "tp"]

