"""Matrix engine: caching, run-ID seeding, parallel equivalence."""

import pytest

from repro.ablation.components import default_registry
from repro.ablation.engine import (KIND_ABLATE, STANDARD_STUDIES,
                                   run_matrix, run_specs, spec_seed)
from repro.ablation.matrix import RunSpec, leave_one_out
from repro.ablation.objective import Scenario
from repro.runtime.cache import ResultCache

TINY = Scenario(profile="ideal", pages=("www.motors.ebay.com",),
                reading_times=(2.0, 9.0, 30.0))


def tiny_specs():
    registry = default_registry().subset(
        ["fast_dormancy", "timers"])
    return leave_one_out(registry, context=TINY.fingerprint())


def test_spec_seed_is_a_pure_function_of_the_run_id():
    specs = tiny_specs()
    assert spec_seed(specs[0].run_id) == spec_seed(specs[0].run_id)
    assert spec_seed(specs[0].run_id) != spec_seed(specs[1].run_id)
    # Pinned: the seed derivation is part of the cache contract.
    assert spec_seed("deadbeef") == 375362716


def test_run_specs_rejects_duplicates():
    spec = tiny_specs()[0]
    with pytest.raises(ValueError):
        run_specs([spec, spec], TINY)


def test_results_in_input_order_and_reports_deterministic():
    specs = tiny_specs()
    one = run_specs(specs, TINY)
    two = run_specs(specs, TINY)
    assert [run.spec.run_id for run in one.runs] \
        == [spec.run_id for spec in specs]
    assert one.report() == two.report()


def test_cache_round_trip_is_report_identical(tmp_path):
    specs = tiny_specs()
    cache = ResultCache(tmp_path / "cache")
    cold = run_specs(specs, TINY, cache=cache)
    warm = run_specs(specs, TINY, cache=cache)
    assert cold.n_cached == 0
    assert warm.n_cached == len(specs)
    assert warm.cache_hit_rate == 1.0
    assert cold.report() == warm.report()
    for run in warm.runs:
        assert run.cached


def test_warm_loo_matrix_is_fully_cached_and_report_identical(tmp_path):
    """A second leave-one-out matrix over the whole default registry
    serves every cell from the cache and prints the cold report."""
    cache = ResultCache(tmp_path / "cache")
    cold = run_matrix("loo", TINY, cache=cache)
    warm = run_matrix("loo", TINY, cache=cache)
    assert cold.n_cached == 0
    assert len(cold.runs) == 7  # baseline + six default components
    assert warm.cache_hit_rate == 1.0
    assert warm.report() == cold.report()


def test_partial_cache_reruns_only_the_missing_cells(tmp_path):
    """One hit and two misses, serially and through the pool (two
    one-cell tasks of the same batched evaluator): same report."""
    specs = tiny_specs()
    assert len(specs) == 3
    reports = []
    for processes in (1, 2):
        cache = ResultCache(tmp_path / f"cache-{processes}")
        run_specs(specs[:1], TINY, cache=cache)
        mixed = run_specs(specs, TINY, processes=processes, cache=cache)
        assert [run.cached for run in mixed.runs] == [True, False, False]
        reports.append(mixed.report())
    assert reports[0] == reports[1] == run_specs(specs, TINY).report()


def test_parallel_report_matches_serial():
    specs = tiny_specs()
    serial = run_specs(specs, TINY, processes=1)
    fanned = run_specs(specs, TINY, processes=2)
    assert serial.report() == fanned.report()


def test_run_matrix_with_component_subset():
    result = run_matrix("loo", TINY,
                        components=["fast_dormancy", "timers"])
    assert len(result.runs) == 3
    assert "fast_dormancy=off" in result.report()


def test_overrides_flow_through_to_the_objective():
    registry = default_registry()
    base = registry.baseline_assignment()
    plain = RunSpec.make(base, context=TINY.fingerprint())
    tuned = RunSpec.make(base, context=TINY.fingerprint(),
                         overrides={"t1": 2.0, "t2": 8.0,
                                    "fast_dormancy": False})
    result = run_specs([plain, tuned], TINY)
    assert plain.run_id != tuned.run_id
    assert result.runs[0].metrics["energy"] \
        != result.runs[1].metrics["energy"]


def test_kind_ablate_registered_with_the_runtime():
    from repro.runtime.parallel import registry_for

    registry = registry_for(KIND_ABLATE)
    assert set(registry) == set(STANDARD_STUDIES)
    title, runner = registry["loo-ideal"]
    assert "loo" in title
    assert callable(runner)
