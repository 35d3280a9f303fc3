"""The stitch: fold a point's exact unit shards into its result.

Every unit ran from the exact carry its predecessor published
(:mod:`repro.sched.worker`), so its dropped count already is the
serial one: the point's count is their sum.  The aggregates reassemble
through :meth:`~repro.stream.aggregate.ServiceAggregate.stitch` into
the byte-exact whole-stream aggregate.  Nothing is re-resolved.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

# Unused here; kept because bench/trace.py wraps this module's name.
from repro.fleet.capacity import resolve_drops_block  # noqa: F401
from repro.stream.aggregate import ServiceAggregate
from repro.stream.sweep import StreamPoint
from repro.sched.units import PointPlan


def stitch_point(plan: PointPlan,
                 unit_results: Sequence[Tuple[Dict[str, np.ndarray],
                                              dict]]) -> StreamPoint:
    """Fold a point's ordered unit results into its exact
    :class:`~repro.stream.sweep.StreamPoint`."""
    metas = [meta for _arrays, meta in unit_results]
    if len(metas) != len(plan.units):
        raise ValueError(
            f"expected {len(plan.units)} unit results, "
            f"got {len(metas)}")
    for unit, meta in zip(plan.units, metas):
        if int(meta["index"]) != unit.index:
            raise ValueError(
                f"unit result out of order: expected index "
                f"{unit.index}, got {meta['index']}")
    aggregate = ServiceAggregate.stitch(
        [meta["aggregate"] for meta in metas])
    return StreamPoint.from_parts(
        plan.n_users, plan.seed, plan.n_sessions,
        sum(int(meta["dropped"]) for meta in metas), aggregate)
