"""The partitioner: one sweep point's unit ranges and chain boundaries.

A *unit* is a contiguous range of ``unit_blocks`` arrival blocks.  The
units of a point run in order, each from the exact :class:`Boundary`
its predecessor published: the
:meth:`~repro.capacity.simulator.ArrivalBlockSource.state` snapshot and
the true :class:`~repro.fleet.capacity.DropCarry` at the unit's first
block.  Boundaries cannot be computed ahead of the chain — the
ziggurat exponential sampler and the ``choice`` service draws consume
a variable number of raw bit-stream words per value — so the chain
itself publishes them, and ``unit_blocks`` is the checkpoint interval.

The ranges need only the point's session count, which the source's
pass 1 (:meth:`~repro.capacity.simulator.ArrivalBlockSource.scan`)
gives without drawing a block: :func:`plan_point` runs that scan and
tiles the stream, and any published boundary carries the count, so a
worker resuming mid-chain rebuilds the same plan with
:meth:`PointPlan.tile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.fleet.capacity import DropCarry
from repro.stream import DEFAULT_BLOCK_ARRIVALS

#: Default blocks per unit: the checkpoint interval of a point's chain.
DEFAULT_UNIT_BLOCKS = 8


@dataclass(frozen=True)
class UnitDescriptor:
    """One block range of a point's stream."""

    index: int
    start_block: int
    n_blocks: int
    #: Global element offset (sessions emitted before this unit) — the
    #: alignment anchor for the exact sketch fragments.
    start_offset: int


@dataclass(frozen=True)
class PointPlan:
    """The unit ranges of one point."""

    n_users: int
    seed: int
    n_sessions: int
    n_blocks: int
    block_arrivals: int
    unit_blocks: int
    units: Tuple[UnitDescriptor, ...]

    @classmethod
    def tile(cls, n_users: int, seed: int, n_sessions: int, *,
             block_arrivals: int, unit_blocks: int) -> "PointPlan":
        """Cut ``n_sessions`` into ``unit_blocks``-block units.  A point
        always has unit 0 (it carries the scan), so a point with no
        session has one empty unit."""
        if unit_blocks < 1:
            raise ValueError(
                f"unit_blocks must be >= 1, got {unit_blocks}")
        n_blocks = -(-int(n_sessions) // int(block_arrivals))
        units = tuple(
            UnitDescriptor(index=index, start_block=start,
                           n_blocks=min(unit_blocks, n_blocks - start),
                           start_offset=min(start * block_arrivals,
                                            int(n_sessions)))
            for index, start in enumerate(
                range(0, max(n_blocks, 1), unit_blocks)))
        return cls(n_users=int(n_users), seed=int(seed),
                   n_sessions=int(n_sessions), n_blocks=n_blocks,
                   block_arrivals=int(block_arrivals),
                   unit_blocks=int(unit_blocks), units=units)


@dataclass(frozen=True)
class Boundary:
    """The exact state of a point's chain between two units."""

    #: Source snapshot (generator states, cumsum carry, emitted count,
    #: session count) at the boundary.
    source_state: dict
    #: The true busy frontier after the last block before it.
    carry: DropCarry

    def to_shard(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` parts for a
        :class:`~repro.stream.shard.ShardStore` entry."""
        return ({"busy": np.asarray(self.carry.busy)},
                {"source_state": self.source_state,
                 "boundary": float(self.carry.boundary)})

    @classmethod
    def from_shard(cls, arrays: Dict[str, np.ndarray],
                   meta: dict) -> "Boundary":
        return cls(source_state=meta["source_state"],
                   carry=DropCarry(busy=arrays["busy"],
                                   boundary=float(meta["boundary"])))


def plan_point(pool: np.ndarray, n_users: int, seed: int, *,
               config: Optional[CapacityConfig] = None,
               block_arrivals: int = DEFAULT_BLOCK_ARRIVALS,
               unit_blocks: int = DEFAULT_UNIT_BLOCKS
               ) -> Tuple[PointPlan, Boundary]:
    """Scan the point (pass 1 only, no block drawn) and tile it;
    returns the plan and the chain's origin, unit 0's start."""
    source = ArrivalBlockSource(pool, n_users, config=config, seed=seed,
                                block_arrivals=block_arrivals)
    plan = PointPlan.tile(n_users, seed, source.scan(),
                          block_arrivals=block_arrivals,
                          unit_blocks=unit_blocks)
    return plan, Boundary(source.state(), DropCarry.empty())
