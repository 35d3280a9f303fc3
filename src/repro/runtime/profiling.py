"""``repro profile <task>``: one registered task under cProfile.

:func:`profile_task` wraps any registered experiment / ablation /
faults task in :mod:`cProfile` and returns its top-N hotspots next to
the task's kernel counters; :func:`render_profile` prints them.  Where
the whole paper chain spends its time, layer by layer, is the seeded
end-to-end benchmark's job (``python -m bench.run --trace``).
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Any, Dict, List, Optional


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

    The profiled call is the suite runner's own
    :func:`repro.runtime.parallel._execute_task` under the seed
    :func:`repro.runtime.parallel.run_tasks` derives, so a profiled run
    does exactly the work the suite runner would do.
    """
    from repro.runtime.observability import SimRunStats
    from repro.runtime.parallel import _execute_task, select_tasks
    from repro.runtime.seeding import DEFAULT_ROOT_SEED, task_seed

    select_tasks(kind, [task_id])
    root_seed = DEFAULT_ROOT_SEED if seed is None else seed
    profiler = cProfile.Profile()
    payload = profiler.runcall(_execute_task, kind, task_id,
                               task_seed(root_seed, f"{kind}:{task_id}"))
    stats = pstats.Stats(profiler)
    return {
        "kind": kind,
        "task_id": task_id,
        "title": payload["title"],
        "seed": payload["seed"],
        "wall_time": payload["wall_time"],
        "total_calls": stats.total_calls,
        "report": payload["report"],
        "hotspots": _hotspots(stats, top_n, sort),
        "kernel": SimRunStats.from_dict(payload).to_dict(),
    }


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
