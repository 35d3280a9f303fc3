"""The carry-chain stitch: from speculative units to the exact point.

:func:`stitch_point` walks a point's unit results in order, threading
the *true* drop-carry frontier.  For each unit it either

- **adopts** the speculative run wholesale when the true incoming
  frontier is empty (the speculative run started from exactly that
  state — an empty busy array resolves identically whatever the
  boundary scalar says, since there are no carried departures to bin
  or filter), or
- **replays** blocks with the true carry until the replayed frontier's
  busy multiset coincides with the recorded speculative digest, then
  splices in the remaining speculative dropped counts and final
  frontier.

A unit whose frontiers never coincide (possible in principle, never
observed — a block spans far more simulated time than the longest
service) is simply replayed in full, which *is* the serial
computation, so the stitch is exact unconditionally: coincidence is a
fast path, not a correctness assumption.

The aggregates need no replay at all — every service value enters the
aggregate regardless of the drop mask, so the per-unit fragments
reassemble via :meth:`~repro.stream.aggregate.ServiceAggregate.
stitch` into the byte-exact whole-stream aggregate.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.fleet.capacity import DropCarry, resolve_drops_block
from repro.runtime.observability import KERNEL_STATS
from repro.stream.aggregate import ServiceAggregate
from repro.stream.sweep import StreamPoint
from repro.sched.units import PointPlan
from repro.sched.worker import frontier_digest


def stitch_point(pool: np.ndarray, plan: PointPlan,
                 unit_results: Sequence[Tuple[Dict[str, np.ndarray],
                                              dict]], *,
                 config: Optional[CapacityConfig] = None) -> StreamPoint:
    """Stitch a point's ordered unit results into its exact
    :class:`~repro.stream.sweep.StreamPoint`."""
    config = config if config is not None else CapacityConfig()
    unit_results = list(unit_results)
    if len(unit_results) != len(plan.units):
        raise ValueError(
            f"expected {len(plan.units)} unit results, "
            f"got {len(unit_results)}")
    carry = DropCarry.empty()
    dropped = 0
    replayed = 0
    for unit, (arrays, meta) in zip(plan.units, unit_results):
        if int(meta["index"]) != unit.index:
            raise ValueError(
                f"unit result out of order: expected index "
                f"{unit.index}, got {meta['index']}")
        final = DropCarry(
            busy=np.asarray(arrays["final_busy"], dtype=np.float64),
            boundary=float(meta["final_boundary"]))
        if np.asarray(carry.busy).size == 0:
            # The speculative run started from this exact state.
            dropped += sum(int(d) for d in meta["dropped_blocks"])
            carry = final
            continue
        source = ArrivalBlockSource(pool, plan.n_users, config=config,
                                    seed=plan.seed,
                                    block_arrivals=plan.block_arrivals)
        source.restore(unit.source_state)
        digests = meta["digests"]
        matched_at = None
        for j, (arrivals, services) in enumerate(
                islice(source.blocks(), unit.n_blocks)):
            mask, carry = resolve_drops_block(arrivals, services,
                                              config.n_channels, carry)
            dropped += int(mask.sum())
            replayed += 1
            if frontier_digest(carry) == digests[j]:
                matched_at = j
                break
        if matched_at is not None and matched_at + 1 < unit.n_blocks:
            dropped += sum(int(d) for d in
                           meta["dropped_blocks"][matched_at + 1:])
            carry = final
        # matched on the last block, or never: the replayed carry and
        # counts already are the true serial ones.
    KERNEL_STATS.add(sched_replay_blocks=replayed)
    aggregate = ServiceAggregate.stitch(
        [meta["aggregate"] for _arrays, meta in unit_results])
    return StreamPoint.from_parts(plan.n_users, plan.seed,
                                  plan.n_sessions, dropped, aggregate)
