"""The partitioner: split one sweep point into block-range units.

A *unit* is a contiguous range of arrival blocks plus the
:meth:`~repro.capacity.simulator.ArrivalBlockSource.state` snapshot at its
starting boundary, so any worker can regenerate exactly its share of
the stream — draw-for-draw identical to the serial pass — without
touching the rest.

Unit boundaries cannot be computed analytically: the ziggurat
exponential sampler and the ``choice`` service draws consume a
variable number of raw bit-stream words per value, so the only way to
know the RNG state at block boundary ``b`` is to draw blocks ``0..b-1``.
The **seeding pass** (:func:`plan_point`) therefore streams the whole
point once, draw-only — no drop resolution, no aggregation, measured at
a few percent of the full per-point cost — snapshotting the source
every ``unit_blocks`` blocks.  Seeding passes for different points are
themselves independent scheduler tasks, so they overlap with unit
execution of other points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.stream import DEFAULT_BLOCK_ARRIVALS

#: Default blocks per unit: coarse enough that the stitch replays a
#: small fraction of each unit, fine enough to load-balance 8 workers.
DEFAULT_UNIT_BLOCKS = 8


@dataclass(frozen=True)
class UnitDescriptor:
    """One executable block range of a point's stream."""

    index: int
    start_block: int
    n_blocks: int
    #: Global element offset (sessions emitted before this unit) — the
    #: alignment anchor for the exact sketch fragments.
    start_offset: int
    #: Source snapshot at the unit's starting block boundary.
    source_state: dict

    def to_state(self) -> dict:
        return {"index": self.index, "start_block": self.start_block,
                "n_blocks": self.n_blocks,
                "start_offset": self.start_offset,
                "source_state": self.source_state}

    @classmethod
    def from_state(cls, state: dict) -> "UnitDescriptor":
        return cls(index=int(state["index"]),
                   start_block=int(state["start_block"]),
                   n_blocks=int(state["n_blocks"]),
                   start_offset=int(state["start_offset"]),
                   source_state=dict(state["source_state"]))


@dataclass(frozen=True)
class PointPlan:
    """Everything a worker needs to execute or stitch one point."""

    n_users: int
    seed: int
    n_sessions: int
    n_blocks: int
    block_arrivals: int
    unit_blocks: int
    units: Tuple[UnitDescriptor, ...]

    def to_state(self) -> dict:
        return {"version": 1, "n_users": self.n_users,
                "seed": self.seed, "n_sessions": self.n_sessions,
                "n_blocks": self.n_blocks,
                "block_arrivals": self.block_arrivals,
                "unit_blocks": self.unit_blocks,
                "units": [u.to_state() for u in self.units]}

    @classmethod
    def from_state(cls, state: dict) -> "PointPlan":
        return cls(n_users=int(state["n_users"]),
                   seed=int(state["seed"]),
                   n_sessions=int(state["n_sessions"]),
                   n_blocks=int(state["n_blocks"]),
                   block_arrivals=int(state["block_arrivals"]),
                   unit_blocks=int(state["unit_blocks"]),
                   units=tuple(UnitDescriptor.from_state(u)
                               for u in state["units"]))


def plan_point(pool: np.ndarray, n_users: int, seed: int, *,
               config: Optional[CapacityConfig] = None,
               block_arrivals: int = DEFAULT_BLOCK_ARRIVALS,
               unit_blocks: int = DEFAULT_UNIT_BLOCKS) -> PointPlan:
    """Seeding pass: stream the point draw-only, snapshot every
    ``unit_blocks`` boundaries, return the unit decomposition."""
    if unit_blocks < 1:
        raise ValueError(
            f"unit_blocks must be >= 1, got {unit_blocks}")
    source = ArrivalBlockSource(pool, n_users, config=config,
                                seed=seed,
                                block_arrivals=block_arrivals)
    source.scan()
    boundary_states = [source.state()]
    n_blocks = 0
    for _arrivals, _services in source.blocks():
        n_blocks += 1
        if n_blocks % unit_blocks == 0:
            boundary_states.append(source.state())
    units = []
    for index, start in enumerate(range(0, n_blocks, unit_blocks)):
        state = boundary_states[index]
        units.append(UnitDescriptor(
            index=index, start_block=start,
            n_blocks=min(unit_blocks, n_blocks - start),
            start_offset=int(state["emitted"]),
            source_state=state))
    return PointPlan(n_users=int(n_users), seed=int(seed),
                     n_sessions=int(source.n_sessions),
                     n_blocks=n_blocks,
                     block_arrivals=int(block_arrivals),
                     unit_blocks=int(unit_blocks),
                     units=tuple(units))
