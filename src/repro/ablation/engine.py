"""Cached, parallel execution of ablation run matrices.

Cells run through :func:`repro.runtime.parallel.run_cached`, the same
cache-then-pool fan-out the suite runner uses: repeats are served from
the content-addressed :class:`~repro.runtime.cache.ResultCache`, the
misses run as one batched pass (or as one-cell pool tasks of that same
batched evaluator), and results come back in canonical matrix order
whatever order the workers finished in — with one ablation-specific
twist required by the determinism story:

**every run's seed is spawned off its run ID** (not its position, not a
submission counter).  Killing a matrix half-way and re-running it, or
resuming a search from its trace, re-derives byte-identical seeds for
the remaining cells, so results never depend on *when* a cell ran.

The module also exposes :data:`STANDARD_STUDIES` — a handful of named
matrix studies (``loo-ideal``, ``pairs-cell-edge``, …) registered as the
``KIND_ABLATE`` task kind in :mod:`repro.runtime.parallel`, so
``repro profile --kind ablate`` and the cached suite runner treat matrix
studies like any other experiment.
"""

from __future__ import annotations

import functools
import hashlib
import time as _time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.ablation.components import ComponentRegistry, VariantSetup, \
    default_registry
from repro.ablation.matrix import RunSpec, generate
from repro.ablation.objective import Scenario, evaluate_setups
from repro.runtime.cache import ResultCache, code_version_hash
from repro.runtime.parallel import KIND_ABLATE, run_cached

#: Metric columns, in report/CSV order.  ``drop_probability`` joins when
#: the scenario carries a population.
METRIC_COLUMNS = ("energy", "energy_saving", "delay", "load_time",
                  "tx_time", "switch_rate", "drop_probability")


def spec_seed(run_id: str) -> int:
    """The run's seed, spawned off its content-addressed identity.

    A :class:`numpy.random.SeedSequence` keyed purely by the run ID —
    no positional component, no root seed (the scenario's seed is
    already *inside* the run ID via the context fingerprint) — so a
    cell's stream survives kills, resumes, subset re-runs and matrix
    reorderings unchanged.
    """
    digest = hashlib.sha256(f"ablate:{run_id}".encode("utf-8")).digest()
    sequence = np.random.SeedSequence(
        int.from_bytes(digest[:8], "big"))
    return int(sequence.generate_state(1)[0])


@dataclass(frozen=True)
class MatrixRun:
    """One evaluated matrix cell."""

    spec: RunSpec
    seed: int
    metrics: Dict[str, float]
    wall_time: float = 0.0
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.spec.run_id,
            "assignment": self.spec.assignment_dict,
            "overrides": self.spec.overrides_dict,
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "wall_time": self.wall_time,
            "cached": self.cached,
        }


def _setup_for_spec(registry: ComponentRegistry,
                    spec: RunSpec) -> VariantSetup:
    setup = registry.setup_for(spec.assignment_dict)
    if spec.overrides:
        setup = setup.apply(spec.overrides_dict)
    return setup


def _execute_specs_batched(scenario: Scenario,
                           cache_dir: Optional[str],
                           specs: Sequence[RunSpec],
                           seeds: Mapping[str, int]
                           ) -> List[Dict[str, Any]]:
    """Evaluate cells in one unit-grid pass: a whole serial batch, or
    one pool task's single cell.

    Workers build the component registry locally, so nothing but
    specs, seeds and the frozen scenario crosses a process boundary.
    ``cache_dir`` points pool workers at the matrix's on-disk cache so
    memoised page loads (keyed by the load-relevant projection) are
    shared across processes, not just within one.  Nothing on the
    evaluation path reads the legacy global np.random stream (predictor
    and capacity draws use explicit ``eval_seed`` generators), so the
    batch size cannot change metrics.  Per-cell wall time is an equal
    share of the batch (runtime summary only; it never reaches a
    deterministic report).
    """
    registry = default_registry()
    load_cache = ResultCache(cache_dir) if cache_dir is not None else None
    pairs = [(_setup_for_spec(registry, spec), seeds[spec.run_id])
             for spec in specs]
    started = _time.perf_counter()
    metrics_list = evaluate_setups(pairs, scenario,
                                   load_cache=load_cache)
    share = (_time.perf_counter() - started) / len(specs)
    return [{
        "run_id": spec.run_id,
        "seed": seeds[spec.run_id],
        "metrics": metrics,
        "wall_time": share,
    } for spec, metrics in zip(specs, metrics_list)]


@dataclass
class MatrixResult:
    """Every cell's metrics, in canonical matrix order.

    :meth:`report` is fully deterministic — same matrix, same scenario,
    same code → byte-identical text, with or without the cache, at any
    worker count.  Runtime facts (wall time, cache hits) live only in
    :meth:`render_summary`, exactly the split ``SuiteReport`` uses.
    """

    scenario: Scenario
    runs: List[MatrixRun]
    processes: int = 1
    total_wall_time: float = 0.0

    @property
    def n_cached(self) -> int:
        return sum(1 for run in self.runs if run.cached)

    @property
    def cache_hit_rate(self) -> float:
        return self.n_cached / len(self.runs) if self.runs else 0.0

    def registry(self) -> ComponentRegistry:
        return default_registry()

    def run_for(self, run_id: str) -> MatrixRun:
        for run in self.runs:
            if run.spec.run_id == run_id:
                return run
        raise KeyError(f"no run {run_id!r} in this matrix")

    def _columns(self) -> "Tuple[str, ...]":
        present = set()
        for run in self.runs:
            present.update(run.metrics)
        return tuple(column for column in METRIC_COLUMNS
                     if column in present)

    def report(self) -> str:
        """Deterministic per-cell metric table."""
        registry = self.registry()
        columns = self._columns()
        header = (f"== ablation matrix: {len(self.runs)} runs | "
                  f"profile={self.scenario.profile} "
                  f"pages={len(self.scenario.pages)} "
                  f"readings={len(self.scenario.reading_times)} ==")
        lines = [header,
                 "  ".join([f"{'run':12s}"]
                           + [f"{column:>14s}" for column in columns]
                           + ["label"])]
        for run in self.runs:
            cells = [f"{run.spec.short_id:12s}"]
            for column in columns:
                value = run.metrics.get(column)
                cells.append(f"{value:14.6f}" if value is not None
                             else f"{'-':>14s}")
            cells.append(run.spec.label(registry))
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def render_summary(self) -> str:
        """Runtime facts only — never part of the deterministic report."""
        lines = [f"-- matrix runtime: {len(self.runs)} runs, "
                 f"{self.n_cached} cached "
                 f"({self.cache_hit_rate:.0%} hit rate), "
                 f"{self.processes} workers, "
                 f"{self.total_wall_time:.2f}s wall --"]
        for run in self.runs:
            source = "cache" if run.cached else "run"
            lines.append(f"  {run.spec.short_id}  {run.wall_time:7.2f}s "
                         f"[{source}]")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "matrix": {
                "scenario": self.scenario.fingerprint(),
                "n_runs": len(self.runs),
                "n_cached": self.n_cached,
                "cache_hit_rate": self.cache_hit_rate,
                "processes": self.processes,
                "total_wall_time": self.total_wall_time,
                "code_version": code_version_hash(),
            },
            "runs": [run.to_dict() for run in self.runs],
        }


def run_specs(specs: Sequence[RunSpec], scenario: Scenario,
              processes: int = 1,
              cache: Optional[ResultCache] = None) -> MatrixResult:
    """Evaluate ``specs`` under ``scenario``, possibly in parallel.

    Cells already in the cache (same run ID, same code version) are
    served from disk; the rest fan out across ``processes`` workers.
    Results come back in the order ``specs`` were given — for generator
    output that is canonical content-addressed order.
    """
    seen = set()
    for spec in specs:
        if spec.run_id in seen:
            raise ValueError(f"duplicate run {spec.short_id} in matrix")
        seen.add(spec.run_id)

    started = _time.perf_counter()
    cache_dir = str(cache.root) if cache is not None else None
    outcomes = run_cached(
        KIND_ABLATE, {spec.run_id: spec for spec in specs},
        {spec.run_id: spec_seed(spec.run_id) for spec in specs},
        functools.partial(_execute_specs_batched, scenario, cache_dir),
        processes, cache)
    return MatrixResult(
        scenario=scenario,
        runs=[MatrixRun(spec=spec, seed=payload["seed"],
                        metrics=dict(payload["metrics"]),
                        wall_time=payload["wall_time"], cached=cached)
              for spec, (payload, cached) in zip(specs, outcomes)],
        processes=processes,
        total_wall_time=_time.perf_counter() - started)


def run_matrix(kind: str, scenario: Scenario,
               components: Optional[Sequence[str]] = None,
               fraction: Optional[int] = None,
               processes: int = 1,
               cache: Optional[ResultCache] = None) -> MatrixResult:
    """Generate a ``kind`` matrix over the component registry (or its
    ``components`` subset) and run it."""
    registry = default_registry()
    if components:
        registry = registry.subset(components)
    specs = generate(kind, registry, context=scenario.fingerprint(),
                     fraction=fraction)
    return run_specs(specs, scenario, processes=processes, cache=cache)


# ----------------------------------------------------------------------
# Named studies: the KIND_ABLATE registry for repro profile / run_tasks.
# ----------------------------------------------------------------------


class MatrixStudy:
    """A named, zero-argument matrix study (the task-registry shape)."""

    def __init__(self, kind: str, profile: str) -> None:
        self.kind = kind
        self.profile = profile

    def __call__(self) -> MatrixResult:
        return run_matrix(self.kind, Scenario(profile=self.profile))


#: ``(name, matrix kind, channel profile)`` for the standard studies.
_STANDARD = (
    ("loo-ideal", "loo", "ideal"),
    ("loo-cell-edge", "loo", "cell_edge"),
    ("ofat-ideal", "ofat", "ideal"),
    ("pairs-cell-edge", "pairs", "cell_edge"),
)

#: Named matrix studies exposed as the ``ablate`` task kind.
STANDARD_STUDIES: Dict[str, Tuple[str, Callable]] = {
    name: (f"Ablation matrix: {kind} @ {profile}",
           MatrixStudy(kind, profile))
    for name, kind, profile in _STANDARD
}


def standard_study_registry() -> Dict[str, Tuple[str, Callable]]:
    """Factory handed to ``runtime.parallel``'s ``_REGISTRIES``."""
    return dict(STANDARD_STUDIES)
