"""Unit execution: speculative empty-carry resolve of one block range.

The fixpoint drop resolver threads a :class:`~repro.fleet.capacity.
DropCarry` — the busy-channel frontier — from block to block, which
makes drop resolution a sequential chain.  :func:`run_unit` breaks the
chain by *speculating*: it resolves its block range starting from an
**empty** frontier, records the per-block dropped counts plus a digest
of the frontier after every block, and lets the stitch
(:mod:`repro.sched.stitch`) replay blocks with the true incoming carry
only until the true frontier coincides with a recorded speculative
one.  Coincidence arrives fast — a block spans hours of simulated time
while a service holds a channel for at most minutes, so the frontier
forgets its starting state within a few blocks — after which the
speculative tail (counts and final frontier) is exact and is adopted
wholesale.

Service aggregation has no such chain: every service value enters the
aggregate whether or not its session was dropped, so each unit folds
its values into a :class:`~repro.stream.aggregate.ServiceAggregate`
anchored at the unit's global element offset, and the stitch
reassembles the byte-exact whole-stream aggregate from those
fragments.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import islice
from typing import Dict, Optional, Tuple

import numpy as np

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.fleet.capacity import DropCarry, resolve_drops_block
from repro.runtime.observability import KERNEL_STATS
from repro.stream.aggregate import ServiceAggregate
from repro.sched.units import PointPlan, UnitDescriptor


def frontier_digest(carry: DropCarry) -> str:
    """Digest of the carried frontier's *busy multiset*.

    The resolver's behaviour depends on the carried departures only as
    a multiset (it bins them sorted), and the carried ``boundary`` is
    the last arrival processed — a property of the stream position, not
    of the carry — so two carries at the same block boundary with equal
    busy multisets are interchangeable.  Hashing the sorted departures
    (plus the size, so empty != absent) captures exactly that
    equivalence.
    """
    busy = np.sort(np.asarray(carry.busy, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(struct.pack("<q", busy.size))
    digest.update(busy.tobytes())
    return digest.hexdigest()


def run_unit(pool: np.ndarray, plan: PointPlan, unit: UnitDescriptor, *,
             config: Optional[CapacityConfig] = None
             ) -> Tuple[Dict[str, np.ndarray], dict]:
    """Execute one unit; returns ``(arrays, meta)`` shaped for
    :meth:`~repro.stream.shard.ShardStore.put`.

    ``arrays`` carries the speculative final busy frontier; ``meta``
    carries the per-block dropped counts, per-block frontier digests,
    final boundary and the partial-aggregate fragment.
    """
    config = config if config is not None else CapacityConfig()
    source = ArrivalBlockSource(pool, plan.n_users, config=config,
                                seed=plan.seed,
                                block_arrivals=plan.block_arrivals)
    source.restore(unit.source_state)
    carry = DropCarry.empty()
    aggregate = ServiceAggregate(unit.start_offset)
    dropped_blocks = []
    digests = []
    for arrivals, services in islice(source.blocks(), unit.n_blocks):
        mask, carry = resolve_drops_block(arrivals, services,
                                          config.n_channels, carry)
        dropped_blocks.append(int(mask.sum()))
        digests.append(frontier_digest(carry))
        aggregate.add_block(services)
        KERNEL_STATS.add(stream_blocks=1,
                         stream_peak_carried_bytes=carry.nbytes)
    KERNEL_STATS.add(sched_units=1)
    arrays = {"final_busy": np.asarray(carry.busy, dtype=np.float64)}
    meta = {
        "index": int(unit.index),
        "n_blocks": int(unit.n_blocks),
        "dropped_blocks": dropped_blocks,
        "digests": digests,
        "final_boundary": float(carry.boundary),
        "aggregate": aggregate.to_state(),
    }
    return arrays, meta
