"""Partitioner invariants: plans tile the stream exactly, and published
boundaries restart it draw for draw."""

import json

import numpy as np
import pytest

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.sched.units import Boundary, PointPlan, plan_point
from repro.sched.worker import run_unit
from repro.stream.sweep import lognormal_pool

POOL = lognormal_pool(seed=7)
CONFIG = CapacityConfig(n_channels=100, horizon=600.0, seed=3)


def test_plan_tiles_the_stream():
    plan, origin = plan_point(POOL, 3000, 11, config=CONFIG,
                              block_arrivals=512, unit_blocks=3)
    source = ArrivalBlockSource(POOL, 3000, config=CONFIG, seed=11,
                                block_arrivals=512)
    assert plan.n_sessions == source.scan()
    assert plan.n_blocks == -(-plan.n_sessions // 512)
    assert sum(u.n_blocks for u in plan.units) == plan.n_blocks
    starts = [u.start_block for u in plan.units]
    assert starts == list(range(0, plan.n_blocks, 3))
    # unit offsets are the emitted counts at each boundary
    assert [u.start_offset for u in plan.units] \
        == [min(s * 512, plan.n_sessions) for s in starts]
    # the plan draws no block: the origin stands at the first one
    assert origin.source_state == source.state()
    assert origin.carry.busy.size == 0


def test_plan_units_regenerate_their_exact_blocks():
    """Each unit restarts from the boundary its predecessor published
    and draws exactly its share of the serial stream."""
    plan, start = plan_point(POOL, 2000, 5, config=CONFIG,
                             block_arrivals=512, unit_blocks=2)
    serial = ArrivalBlockSource(POOL, 2000, config=CONFIG, seed=5,
                                block_arrivals=512)
    serial_blocks = list(serial.blocks())
    cursor = 0
    for unit in plan.units:
        source = ArrivalBlockSource(POOL, 2000, config=CONFIG, seed=5,
                                    block_arrivals=512)
        source.restore(start.source_state)
        blocks = source.blocks()
        for _ in range(unit.n_blocks):
            arrivals, services = next(blocks)
            ref_arrivals, ref_services = serial_blocks[cursor]
            assert (arrivals == ref_arrivals).all()
            assert (services == ref_services).all()
            cursor += 1
        start = Boundary.from_shard(*run_unit(POOL, plan, unit, start,
                                              config=CONFIG))
        assert start.source_state["emitted"] == source.state()["emitted"]
        # the published carry is the exact one: it ends at the unit's
        # last arrival
        assert start.carry.boundary == float(ref_arrivals[-1])
    assert cursor == len(serial_blocks)


def test_plan_roundtrips_through_json():
    """A plan is never stored: it is rebuilt from the session count a
    published boundary carries, after the boundary's JSON round trip
    through a shard header."""
    plan, origin = plan_point(POOL, 1500, 9, config=CONFIG,
                              block_arrivals=1024, unit_blocks=4)
    arrays, meta = run_unit(POOL, plan, plan.units[0], origin,
                            config=CONFIG)
    boundary = Boundary.from_shard(
        {"busy": np.array(arrays["busy"])}, json.loads(json.dumps(meta)))
    assert PointPlan.tile(1500, 9, boundary.source_state["n_sessions"],
                          block_arrivals=1024, unit_blocks=4) == plan
    assert boundary.carry.boundary == float(meta["boundary"])


def test_unit_blocks_one_is_valid():
    plan, _ = plan_point(POOL, 1000, 2, config=CONFIG,
                         block_arrivals=1024, unit_blocks=1)
    assert all(u.n_blocks == 1 for u in plan.units)
    assert len(plan.units) == plan.n_blocks


def test_unit_blocks_must_be_positive():
    with pytest.raises(ValueError, match="unit_blocks"):
        plan_point(POOL, 1000, 2, config=CONFIG, unit_blocks=0)


def test_a_point_without_sessions_has_one_empty_unit():
    plan = PointPlan.tile(1, 2, 0, block_arrivals=512, unit_blocks=8)
    assert plan.n_blocks == 0
    assert [(u.start_block, u.n_blocks, u.start_offset)
            for u in plan.units] == [(0, 0, 0)]
