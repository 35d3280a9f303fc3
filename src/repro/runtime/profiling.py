"""Profiling harness and the committed benchmark trajectory.

Two jobs, one module:

- ``repro profile <task>`` wraps any registered experiment / ablation /
  faults task in :mod:`cProfile`, prints the top-N hotspots, and can
  embed them in a JSON report next to the task's kernel counters — so
  "where does the time go" is one command, not folklore.

- ``python -m repro.runtime.profiling bench`` runs the pytest-benchmark
  suite under ``benchmarks/`` and distils it into a ``BENCH_<n>.json``
  artifact: suite total wall time plus, per benchmark, wall time,
  kernel events/second and the sim-time/real-time ratio.  ``compare``
  diffs two such artifacts and fails (exit 1) past a regression budget,
  which is what ``make bench-compare`` and the CI smoke job run.  The
  committed ``BENCH_0.json`` (seed) and ``BENCH_1.json`` (after the
  fast-path work) are the repo's performance trajectory.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import platform
import pstats
import subprocess
import sys
import tempfile
import time as _time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Filename pattern of committed trajectory artifacts.
BENCH_PATTERN = "BENCH_{n}.json"
BENCH_SCHEMA = "repro-bench-v1"

# ----------------------------------------------------------------------
# cProfile wrapper around one registered task
# ----------------------------------------------------------------------


def _hotspots(stats: pstats.Stats, top_n: int,
              sort: str) -> List[Dict[str, Any]]:
    """Top-N rows of a ``pstats`` table as plain dicts."""
    stats.sort_stats(sort)
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top_n]:  # (file, line, name)
        cc, nc, tottime, cumtime, _ = stats.stats[func]
        file, line, name = func
        rows.append({
            "function": name,
            "file": file,
            "line": line,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    return rows


def profile_task(kind: str, task_id: str, seed: Optional[int] = None,
                 top_n: int = 25,
                 sort: str = "cumulative") -> Dict[str, Any]:
    """Run one registered task under cProfile; return a report payload.

    Seeding matches :func:`repro.runtime.parallel.run_tasks` exactly, so
    a profiled run reproduces the same work the suite runner would do.
    """
    import numpy as np

    from repro.runtime import parallel as runtime_parallel
    from repro.runtime.observability import collecting
    from repro.runtime.seeding import DEFAULT_ROOT_SEED, task_seed

    registry = runtime_parallel.registry_for(kind)
    if task_id not in registry:
        raise KeyError(f"unknown {kind} id {task_id!r}; "
                       f"known: {sorted(registry)}")
    title, runner = registry[task_id]
    root_seed = DEFAULT_ROOT_SEED if seed is None else seed
    derived = task_seed(root_seed, f"{kind}:{task_id}")
    np.random.seed(derived % (2 ** 32))

    profiler = cProfile.Profile()
    started = _time.perf_counter()
    with collecting() as collector:
        profiler.enable()
        if getattr(runner, "needs_seed", False):
            report = runner(seed=derived).report()
        else:
            report = runner().report()
        profiler.disable()
    wall_time = _time.perf_counter() - started
    stats = pstats.Stats(profiler, stream=io.StringIO())

    payload: Dict[str, Any] = {
        "kind": kind,
        "task_id": task_id,
        "title": title,
        "seed": derived,
        "wall_time": wall_time,
        "total_calls": stats.total_calls,
        "report": report,
        "hotspots": _hotspots(stats, top_n, sort),
        "kernel": collector.snapshot().to_dict(),
    }
    return payload


def render_profile(payload: Dict[str, Any]) -> str:
    """Human-readable hotspot table for one :func:`profile_task` payload."""
    lines = [f"== profile {payload['task_id']}: {payload['title']} ==",
             f"wall {payload['wall_time']:.2f}s, "
             f"{payload['total_calls']} calls"]
    kernel = payload["kernel"]
    if kernel.get("events_processed"):
        lines.append(
            f"kernel: {kernel['events_processed']} events, "
            f"sim/real {kernel['sim_time_ratio']:.0f}x")
    lines.append(f"{'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}  "
                 f"function")
    for row in payload["hotspots"]:
        where = f"{Path(row['file']).name}:{row['line']}"
        lines.append(f"{row['ncalls']:>10d} {row['tottime']:>9.3f} "
                     f"{row['cumtime']:>9.3f}  {row['function']} "
                     f"({where})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# BENCH_<n>.json: run the benchmark suite, distil, compare
# ----------------------------------------------------------------------


def next_bench_path(directory: os.PathLike = ".") -> Path:
    """First unused ``BENCH_<n>.json`` path in ``directory``."""
    root = Path(directory)
    n = 0
    while (root / BENCH_PATTERN.format(n=n)).exists():
        n += 1
    return root / BENCH_PATTERN.format(n=n)


def _distil(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a pytest-benchmark JSON dump to the trajectory schema."""
    from repro.runtime.cache import code_version_hash

    benchmarks: List[Dict[str, Any]] = []
    for bench in sorted(raw.get("benchmarks", []),
                        key=lambda b: b["name"]):
        wall = float(bench["stats"]["mean"])
        # Every numeric extra_info key rides along: the kernel counters
        # the benchmark conftest publishes plus whatever the benchmark
        # set itself (cache hit rates, page loads, sched/serve gates).
        row = {key: round(value, 4) if isinstance(value, float) else value
               for key, value in (bench.get("extra_info") or {}).items()
               if isinstance(value, (int, float))}
        events = row.get("events_processed", 0)
        work = row.get("work_units", 0)
        row.update(name=bench["name"], wall_time=round(wall, 4),
                   events_per_sec=round(events / wall) if wall > 0 else 0,
                   work_per_sec=round(work / wall) if wall > 0 else 0)
        benchmarks.append(row)
    return {
        "schema": BENCH_SCHEMA,
        "code_version": code_version_hash(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "suite": {
            "n_benchmarks": len(benchmarks),
            "total_wall_time": round(sum(b["wall_time"]
                                         for b in benchmarks), 2),
        },
        "benchmarks": benchmarks,
    }


def run_bench_suite(select: Optional[str] = None,
                    bench_dir: str = "benchmarks") -> Dict[str, Any]:
    """Run ``pytest <bench_dir> --benchmark-only`` and distil the result.

    ``select`` is a pytest ``-k`` expression (the CI smoke job runs a
    reduced grid with it).  The pytest run happens in a subprocess so a
    partially-imported parent process can never skew the numbers.
    """
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench-raw.json"
        command = [sys.executable, "-m", "pytest", bench_dir,
                   "--benchmark-only", "-q",
                   f"--benchmark-json={raw_path}"]
        if select:
            command += ["-k", select]
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", str(Path(__file__).parents[2]))
        completed = subprocess.run(command, env=env)
        if completed.returncode != 0 or not raw_path.exists():
            raise RuntimeError(
                f"benchmark run failed (exit {completed.returncode})")
        with raw_path.open() as handle:
            raw = json.load(handle)
    return _distil(raw)


def compare_bench(baseline: Dict[str, Any], candidate: Dict[str, Any],
                  max_regression: float = 0.25) -> "tuple[str, bool]":
    """Diff two trajectory artifacts over their common benchmarks.

    Returns ``(text, ok)``; ``ok`` is False when the candidate's total
    wall time over the intersection regresses more than
    ``max_regression`` (0.25 = 25 % slower than baseline).  Comparing
    the intersection lets a reduced CI grid diff against the full
    committed baseline.
    """
    base = {b["name"]: b for b in baseline["benchmarks"]}
    cand = {b["name"]: b for b in candidate["benchmarks"]}
    common = sorted(set(base) & set(cand))
    if not common:
        return "no common benchmarks to compare", False
    lines = [f"{'benchmark':44s} {'base s':>9s} {'cand s':>9s} "
             f"{'speedup':>8s}"]
    base_total = cand_total = 0.0
    for name in common:
        b, c = base[name]["wall_time"], cand[name]["wall_time"]
        base_total += b
        cand_total += c
        speedup = b / c if c > 0 else float("inf")
        lines.append(f"{name:44s} {b:9.2f} {c:9.2f} {speedup:7.2f}x")
    speedup = base_total / cand_total if cand_total > 0 else float("inf")
    ok = cand_total <= base_total * (1.0 + max_regression)
    lines.append(f"{'TOTAL (%d common)' % len(common):44s} "
                 f"{base_total:9.2f} {cand_total:9.2f} {speedup:7.2f}x")
    lines.append(
        f"budget: <= {(1.0 + max_regression) * base_total:.2f}s "
        f"(+{100 * max_regression:.0f}%) -> "
        f"{'OK' if ok else 'REGRESSION'}")
    return "\n".join(lines), ok


def load_bench(path: os.PathLike) -> Dict[str, Any]:
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: not a {BENCH_SCHEMA} artifact")
    return payload


def write_bench(payload: Dict[str, Any], path: os.PathLike) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# CLI (python -m repro.runtime.profiling ...)
# ----------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    payload = run_bench_suite(select=args.select,
                              bench_dir=args.bench_dir)
    out = (next_bench_path() if args.out == "auto"
           else Path(args.out))
    write_bench(payload, out)
    print(f"suite total {payload['suite']['total_wall_time']:.2f}s "
          f"over {payload['suite']['n_benchmarks']} benchmarks "
          f"-> {out}")
    if args.compare:
        text, ok = compare_bench(load_bench(args.compare), payload,
                                 max_regression=args.max_regression)
        print(text)
        return 0 if ok else 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    text, ok = compare_bench(load_bench(args.baseline),
                             load_bench(args.candidate),
                             max_regression=args.max_regression)
    print(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.profiling",
        description="benchmark-trajectory harness (BENCH_<n>.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the benchmark suite and "
                                         "write a trajectory artifact")
    bench.add_argument("--out", default="auto",
                       help="output path, or 'auto' for the next free "
                            "BENCH_<n>.json (default)")
    bench.add_argument("--select", metavar="EXPR",
                       help="pytest -k expression (reduced grid)")
    bench.add_argument("--bench-dir", default="benchmarks")
    bench.add_argument("--compare", metavar="BASELINE",
                       help="also diff against a baseline artifact; "
                            "exit 1 past the regression budget")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="allowed total slowdown (default: 0.25)")
    bench.set_defaults(func=_cmd_bench)

    compare = sub.add_parser("compare",
                             help="diff two trajectory artifacts")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.add_argument("--max-regression", type=float, default=0.25)
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
