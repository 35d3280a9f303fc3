"""Unit execution: one block range of a point's exact carry chain.

The fixpoint drop resolver threads a :class:`~repro.fleet.capacity.
DropCarry` — the busy-channel frontier — from block to block, which
makes drop resolution a sequential chain.  :func:`run_unit` is one
link of it: it restores the source and the true carry from the
:class:`~repro.sched.units.Boundary` the previous unit published (or
from the scan, for unit 0), resolves its blocks exactly as the serial
:func:`~repro.stream.sweep.sweep_point` does, and returns the shard
holding its dropped count, its aggregate fragment and the boundary at
its end.  A unit that is stolen or resumed restarts from that published
boundary, so nothing is ever replayed.

Service aggregation has no chain: every service value enters the
aggregate whether or not its session was dropped, so each unit folds
its values into a :class:`~repro.stream.aggregate.ServiceAggregate`
anchored at the unit's global element offset, and the stitch
(:mod:`repro.sched.stitch`) reassembles the byte-exact whole-stream
aggregate from those fragments.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Tuple

import numpy as np

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.fleet.capacity import resolve_drops_block
from repro.runtime.observability import KERNEL_STATS
from repro.stream.aggregate import ServiceAggregate
from repro.sched.units import Boundary, PointPlan, UnitDescriptor


def run_unit(pool: np.ndarray, plan: PointPlan, unit: UnitDescriptor,
             start: Boundary, *, config: Optional[CapacityConfig] = None
             ) -> Tuple[Dict[str, np.ndarray], dict]:
    """Execute one unit from its exact start boundary; returns
    ``(arrays, meta)`` shaped for :meth:`~repro.stream.shard.
    ShardStore.put`: the end boundary's busy frontier in ``arrays``;
    the unit index, its dropped count, its aggregate fragment and the
    rest of the end boundary in ``meta``."""
    config = config if config is not None else CapacityConfig()
    source = ArrivalBlockSource(pool, plan.n_users, config=config,
                                seed=plan.seed,
                                block_arrivals=plan.block_arrivals)
    source.restore(start.source_state)
    carry = start.carry
    aggregate = ServiceAggregate(unit.start_offset)
    dropped = 0
    for arrivals, services in islice(source.blocks(), unit.n_blocks):
        mask, carry = resolve_drops_block(arrivals, services,
                                          config.n_channels, carry)
        dropped += int(mask.sum())
        aggregate.add_block(services)
        KERNEL_STATS.add(stream_blocks=1,
                         stream_peak_carried_bytes=carry.nbytes)
    KERNEL_STATS.add(sched_units=1)
    arrays, meta = Boundary(source.state(), carry).to_shard()
    meta.update(index=int(unit.index), dropped=dropped,
                aggregate=aggregate.to_state())
    return arrays, meta
