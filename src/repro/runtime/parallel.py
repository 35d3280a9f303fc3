"""Process-pool task runner with caching and kernel observability.

``ALL_EXPERIMENTS`` is embarrassingly parallel — every figure/table
builds its own handsets and traces — yet the sequential runner serialises
roughly two minutes of independent work.  This module fans experiments
(and ablations, and the channel-sensitivity sweep) out across worker
processes while keeping three guarantees:

- **determinism**: each task's seed derives from ``(root_seed, task id)``
  via :func:`repro.runtime.seeding.task_seed`, so output is independent
  of worker count, scheduling order, and which subset of tasks runs.
  ``--parallel 8`` is byte-identical to ``--parallel 1``.
- **idempotence**: with a :class:`repro.runtime.cache.ResultCache`, a
  task whose (id, params, code version) triple already has an entry is
  skipped and served from disk.
- **attribution**: every task reports kernel counters (events processed,
  cancellations, peak queue depth) and the wall-clock/sim-time ratio,
  collected via :mod:`repro.runtime.observability`.

:func:`run_cached` is the one cache-then-pool fan-out: :func:`run_tasks`
and the ablation engine's :func:`repro.ablation.engine.run_specs` both
run their misses through it, and :func:`warm_process` is the one
warm-up its pool workers (and ``repro serve``) run.
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.runtime.cache import ResultCache, cache_key, code_version_hash
from repro.runtime.observability import SimRunStats, collecting
from repro.runtime.seeding import DEFAULT_ROOT_SEED, task_seed

KIND_EXPERIMENT = "experiment"
KIND_ABLATION = "ablation"
KIND_FAULTS = "faults"
KIND_ABLATE = "ablate"


def _experiment_registry() -> "Dict[str, Tuple[str, Callable]]":
    # Imported lazily: repro.experiments pulls in every figure module,
    # which this module's importers (the kernel-adjacent ones) must not.
    from repro.experiments.runner import ALL_EXPERIMENTS

    return {task_id: (title, runner)
            for task_id, title, runner in ALL_EXPERIMENTS}


def _ablation_registry() -> "Dict[str, Tuple[str, Callable]]":
    from repro.experiments.ablations import ALL_ABLATIONS

    return {name: (f"Ablation: {name}", runner)
            for name, runner in ALL_ABLATIONS.items()}


def _faults_registry() -> "Dict[str, Tuple[str, Callable]]":
    from repro.experiments.fig_sensitivity import SWEEP_TASKS

    return {name: (title, runner) for name, title, runner in SWEEP_TASKS}


def _ablate_registry() -> "Dict[str, Tuple[str, Callable]]":
    from repro.ablation.engine import standard_study_registry

    return standard_study_registry()


_REGISTRIES = {
    KIND_EXPERIMENT: _experiment_registry,
    KIND_ABLATION: _ablation_registry,
    KIND_FAULTS: _faults_registry,
    KIND_ABLATE: _ablate_registry,
}


def registry_for(kind: str) -> "Dict[str, Tuple[str, Callable]]":
    """Public registry lookup."""
    return _REGISTRIES[kind]()


@dataclass(frozen=True)
class TaskResult:
    """One completed (or cache-served) task."""

    task_id: str
    kind: str
    title: str
    seed: int
    report: str
    wall_time: float
    kernel: SimRunStats
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "task_id": self.task_id,
            "kind": self.kind,
            "title": self.title,
            "seed": self.seed,
            "cached": self.cached,
            "wall_time": self.wall_time,
            "report": self.report,
        }
        row.update(self.kernel.to_dict())
        return row

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  cached: bool = False) -> "TaskResult":
        return cls(
            task_id=payload["task_id"],
            kind=payload["kind"],
            title=payload["title"],
            seed=payload["seed"],
            report=payload["report"],
            wall_time=payload["wall_time"],
            kernel=SimRunStats.from_dict(payload),
            cached=cached)


@dataclass
class SuiteReport:
    """Every task's report plus the run's own runtime metrics."""

    results: List[TaskResult]
    processes: int
    root_seed: int
    total_wall_time: float
    code_version: str = field(default_factory=code_version_hash)

    @property
    def n_cached(self) -> int:
        return sum(1 for result in self.results if result.cached)

    def render(self) -> str:
        """The experiment reports, in canonical registry order."""
        blocks: List[str] = []
        for result in self.results:
            blocks.append(f"== {result.task_id}: {result.title} ==")
            blocks.append(result.report)
            blocks.append("")
        return "\n".join(blocks)

    def render_summary(self) -> str:
        """One line per task: where the wall-clock went."""
        lines = [f"-- runtime: {len(self.results)} tasks, "
                 f"{self.n_cached} cached, {self.processes} workers, "
                 f"{self.total_wall_time:.2f}s wall --"]
        for result in self.results:
            source = "cache" if result.cached else "run"
            kernel = result.kernel
            lines.append(
                f"  {result.task_id:10s} {result.wall_time:7.2f}s "
                f"[{source:5s}]  {kernel.events_processed:8d} events  "
                f"{kernel.cancellations:6d} cancels  "
                f"depth {kernel.peak_queue_depth:4d}  "
                f"sim/real {kernel.sim_time_ratio:9.1f}x")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": {
                "n_tasks": len(self.results),
                "n_cached": self.n_cached,
                "processes": self.processes,
                "root_seed": self.root_seed,
                "code_version": self.code_version,
                "total_wall_time": self.total_wall_time,
            },
            "tasks": [result.to_dict() for result in self.results],
        }


def warm_process() -> None:
    """Pre-generate the page corpus into this process's caches.

    Pool workers run this as their initializer; the serving layer runs
    it at startup.  Every experiment/ablation/faults task and every
    matrix cell starts from the Table 3 pages, so no task (or request)
    pays page generation mid-run, and a worker's second task never
    regenerates what its first one built.  Warming is deterministic and
    idempotent — it only moves *when* the cost is paid.
    """
    from repro.webpages.corpus import warm_corpus

    warm_corpus()


def run_cached(kind: str, items: Mapping[str, Any],
               seeds: Mapping[str, int],
               execute: Callable[[List[Any], Dict[str, int]],
                                 List[Dict[str, Any]]],
               processes: int = 1,
               cache: Optional[ResultCache] = None
               ) -> List[Tuple[Dict[str, Any], bool]]:
    """Serve ``items`` from ``cache``, run the misses, return payloads.

    ``items`` maps each id to what ``execute`` takes for it, in result
    order; ``execute(items, seeds)`` returns one payload per item, in
    order.  Misses run as one serial ``execute`` call, or — with
    ``processes > 1`` and more than one miss — as one-item tasks on a
    pool of :func:`warm_process`-initialised workers, so ``execute``
    and its bound arguments must pickle.  Returns ``(payload, cached)``
    per id, in ``items`` order.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    code_version = code_version_hash()
    keys = {item_id: cache_key(kind, item_id, {"seed": seeds[item_id]},
                               code_version)
            for item_id in items}
    found: Dict[str, Tuple[Dict[str, Any], bool]] = {}
    pending: List[str] = []
    for item_id in items:
        hit = cache.get(keys[item_id]) if cache is not None else None
        if hit is not None:
            found[item_id] = (hit, True)
        else:
            pending.append(item_id)

    if pending:
        if processes == 1 or len(pending) == 1:
            payloads = execute([items[item_id] for item_id in pending],
                               {item_id: seeds[item_id]
                                for item_id in pending})
        else:
            # Imported here: the CLI reads this module's KIND_* names on
            # every start, sweep workers included.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(processes, len(pending))
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=warm_process) as pool:
                futures = [pool.submit(execute, [items[item_id]],
                                       {item_id: seeds[item_id]})
                           for item_id in pending]
                payloads = [future.result()[0] for future in futures]
        for item_id, payload in zip(pending, payloads):
            if cache is not None:
                cache.put(keys[item_id], payload)
            found[item_id] = (payload, False)
    return [found[item_id] for item_id in items]


def _execute_task(kind: str, task_id: str, seed: int) -> Dict[str, Any]:
    """Worker entry point: run one task and return its payload dict.

    Runs in a pool worker (or inline for ``processes=1``).  The legacy
    global NumPy stream is re-seeded from the task seed so any code path
    still drawing from ``np.random`` is reproducible regardless of which
    worker picks the task up or what ran in that worker before.
    """
    title, runner = _REGISTRIES[kind]()[task_id]
    np.random.seed(seed % (2 ** 32))
    started = _time.perf_counter()
    with collecting() as collector:
        if getattr(runner, "needs_seed", False):
            # Seed-aware runners (the faults sweep) derive their own
            # per-unit child streams from the task seed explicitly.
            report = runner(seed=seed).report()
        else:
            report = runner().report()
    wall_time = _time.perf_counter() - started
    kernel = collector.snapshot()
    payload = {
        "task_id": task_id,
        "kind": kind,
        "title": title,
        "seed": seed,
        "report": report,
        "wall_time": wall_time,
    }
    payload.update(kernel.to_dict())
    # wall_time in the kernel record is time inside Simulator.run only;
    # the task-level wall_time above wins for the flat payload.
    payload["wall_time"] = wall_time
    return payload


def _execute_tasks(kind: str, task_ids: List[str],
                   seeds: Dict[str, int]) -> List[Dict[str, Any]]:
    """:func:`_execute_task` for each id: :func:`run_cached`'s shape."""
    return [_execute_task(kind, task_id, seeds[task_id])
            for task_id in task_ids]


def select_tasks(kind: str,
                 ids: Optional[Sequence[str]] = None) -> List[str]:
    """The registered ``kind`` ids to run, in canonical registry order.

    ``ids=None`` (or empty) means every task; duplicates collapse.
    Unknown ids raise one ``KeyError`` naming them and the known ids —
    the boundary check for every suite command and ``repro profile``.
    """
    registry = registry_for(kind)
    if not ids:
        return list(registry)
    unknown = [task_id for task_id in ids if task_id not in registry]
    if unknown:
        raise KeyError(f"unknown {kind} ids: {sorted(unknown)}; "
                       f"known: {sorted(registry)}")
    requested = set(ids)
    return [task_id for task_id in registry if task_id in requested]


def run_tasks(kind: str,
              ids: Optional[Sequence[str]] = None,
              processes: int = 1,
              cache: Optional[ResultCache] = None,
              root_seed: int = DEFAULT_ROOT_SEED) -> SuiteReport:
    """Run a batch of registered tasks, possibly in parallel.

    ``ids=None`` means every task in the registry, in registry order —
    results always come back in that canonical order, whatever order the
    workers finish in.  Unknown ids raise ``KeyError`` before any work
    starts.
    """
    selected = select_tasks(kind, ids)
    started = _time.perf_counter()
    seeds = {task_id: task_seed(root_seed, f"{kind}:{task_id}")
             for task_id in selected}
    outcomes = run_cached(kind, {task_id: task_id for task_id in selected},
                          seeds, functools.partial(_execute_tasks, kind),
                          processes, cache)
    return SuiteReport(
        results=[TaskResult.from_dict(payload, cached=cached)
                 for payload, cached in outcomes],
        processes=processes,
        root_seed=root_seed,
        total_wall_time=_time.perf_counter() - started)
