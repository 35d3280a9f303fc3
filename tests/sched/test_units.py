"""Partitioner invariants: plans tile the stream exactly."""

import json

import pytest

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from repro.sched.units import PointPlan, plan_point
from repro.stream.sweep import lognormal_pool

POOL = lognormal_pool(seed=7)
CONFIG = CapacityConfig(n_channels=100, horizon=600.0, seed=3)


def test_plan_tiles_the_stream():
    plan = plan_point(POOL, 3000, 11, config=CONFIG,
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


def test_plan_units_regenerate_their_exact_blocks():
    plan = plan_point(POOL, 2000, 5, config=CONFIG,
                      block_arrivals=512, unit_blocks=2)
    serial = ArrivalBlockSource(POOL, 2000, config=CONFIG, seed=5,
                                block_arrivals=512)
    serial_blocks = list(serial.blocks())
    cursor = 0
    for unit in plan.units:
        source = ArrivalBlockSource(POOL, 2000, config=CONFIG, seed=5,
                                    block_arrivals=512)
        source.restore(unit.source_state)
        for _ in range(unit.n_blocks):
            arrivals, services = next(source.blocks())
            ref_arrivals, ref_services = serial_blocks[cursor]
            assert (arrivals == ref_arrivals).all()
            assert (services == ref_services).all()
            cursor += 1
    assert cursor == len(serial_blocks)


def test_plan_roundtrips_through_json():
    plan = plan_point(POOL, 1500, 9, config=CONFIG,
                      block_arrivals=1024, unit_blocks=4)
    state = json.loads(json.dumps(plan.to_state()))
    assert PointPlan.from_state(state) == plan


def test_unit_blocks_one_is_valid():
    plan = plan_point(POOL, 1000, 2, config=CONFIG,
                      block_arrivals=1024, unit_blocks=1)
    assert all(u.n_blocks == 1 for u in plan.units)
    assert len(plan.units) == plan.n_blocks


def test_unit_blocks_must_be_positive():
    with pytest.raises(ValueError, match="unit_blocks"):
        plan_point(POOL, 1000, 2, config=CONFIG, unit_blocks=0)
