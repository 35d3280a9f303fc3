"""Process-pool runner: determinism, caching, report export.

Uses the two cheapest experiments (fig01, table05) so the parallel
pipeline — including real worker processes — stays fast enough for the
tier-1 suite.
"""

import json

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.observability import SimRunStats
from repro.runtime.parallel import (
    KIND_ABLATION,
    KIND_EXPERIMENT,
    TaskResult,
    run_tasks,
)
from repro.runtime.report import write_report

FAST_IDS = ("fig01", "table05")


def test_parallel_output_identical_to_sequential():
    """The acceptance bar: --parallel N is byte-identical to
    sequential execution for the same root seed."""
    sequential = run_tasks(KIND_EXPERIMENT, FAST_IDS, processes=1,
                           root_seed=99)
    parallel = run_tasks(KIND_EXPERIMENT, FAST_IDS, processes=2,
                         root_seed=99)
    assert sequential.render() == parallel.render()
    by_id = {r.task_id: r for r in parallel.results}
    for result in sequential.results:
        assert result.report == by_id[result.task_id].report
        assert result.seed == by_id[result.task_id].seed


def test_results_come_back_in_registry_order():
    suite = run_tasks(KIND_EXPERIMENT, ("table05", "fig01"), processes=2)
    assert [r.task_id for r in suite.results] == ["fig01", "table05"]


def test_unknown_id_raises_before_work():
    with pytest.raises(KeyError, match="fig99"):
        run_tasks(KIND_EXPERIMENT, ("fig99",))


def test_zero_processes_rejected():
    with pytest.raises(ValueError):
        run_tasks(KIND_EXPERIMENT, FAST_IDS, processes=0)


def test_warm_cache_skips_completed_experiments(tmp_path):
    """Serially and through the pool: the cold run puts both tasks, the
    warm rerun serves both from disk, and every report is the same."""
    renders = []
    for processes in (1, 2):
        cache = ResultCache(tmp_path / f"cache-{processes}")
        cold = run_tasks(KIND_EXPERIMENT, FAST_IDS, processes=processes,
                         cache=cache)
        assert [r.cached for r in cold.results] == [False, False]
        assert len(cache) == 2

        warm = run_tasks(KIND_EXPERIMENT, FAST_IDS, processes=processes,
                         cache=cache)
        assert [r.cached for r in warm.results] == [True, True]
        assert warm.n_cached == 2
        assert warm.render() == cold.render()
        # Cached results keep their recorded metrics.
        for result in warm.results:
            assert result.kernel.events_processed > 0
            assert result.wall_time > 0.0
        renders.append(warm.render())
    assert renders[0] == renders[1]


def test_cache_respects_root_seed(tmp_path):
    cache = ResultCache(tmp_path)
    run_tasks(KIND_EXPERIMENT, ("fig01",), cache=cache, root_seed=1)
    other = run_tasks(KIND_EXPERIMENT, ("fig01",), cache=cache, root_seed=2)
    assert other.results[0].cached is False
    assert len(cache) == 2


def test_report_includes_runtime_metrics(tmp_path):
    suite = run_tasks(KIND_EXPERIMENT, FAST_IDS, processes=1)
    payload = suite.to_dict()
    assert payload["suite"]["n_tasks"] == 2
    for task in payload["tasks"]:
        assert task["wall_time"] > 0.0
        assert task["events_processed"] > 0
        assert task["sim_time"] > 0.0
        assert task["sim_time_ratio"] > 0.0
        assert "report" in task

    json_path = tmp_path / "report.json"
    write_report(payload, json_path)
    reloaded = json.loads(json_path.read_text(encoding="utf-8"))
    assert reloaded == json.loads(json.dumps(payload))

    csv_path = tmp_path / "report.csv"
    write_report(payload, csv_path)
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3  # header + one row per task
    assert lines[0].startswith("task_id,")


def test_task_result_round_trip_keeps_every_counter():
    kernel = SimRunStats(events_processed=12, sim_time=3.0,
                         wall_time=0.25, sched_units=3, sched_steals=1,
                         serve_batches=2, serve_coalesced=5)
    result = TaskResult(task_id="fig01", kind="experiment", title="t",
                        seed=1, report="r", wall_time=0.25, kernel=kernel)
    row = result.to_dict()
    again = TaskResult.from_dict(row, cached=True)
    assert again.kernel == kernel
    assert again.to_dict() == dict(row, cached=True)
    assert again.to_dict()["sched_units"] == 3
    assert again.to_dict()["sched_steals"] == 1
    assert again.to_dict()["serve_batches"] == 2


def test_render_summary_mentions_cache_state():
    suite = run_tasks(KIND_EXPERIMENT, ("fig01",), processes=1)
    summary = suite.render_summary()
    assert "1 tasks" in summary
    assert "[run" in summary


def test_run_tasks_rejects_unknown_kind():
    with pytest.raises(KeyError):
        run_tasks("nonsense", ("x",))


def test_ablation_registry_is_wired():
    # Don't run one (they are slow); just check id resolution fails
    # cleanly for unknowns, which exercises the registry lookup.
    with pytest.raises(KeyError, match="nonsense"):
        run_tasks(KIND_ABLATION, ("nonsense",))

