"""The unit chain is exact: units run from the published boundary of
their predecessor, and the stitch folds them into the serial point.

The Hypothesis property kills the chain at any unit boundary: the
units before the kill publish their shards to a real
:class:`~repro.stream.shard.ShardStore`, and a fresh resume rebuilds
the plan from the last published boundary, runs the remaining units
and stitches every shard.  The point must equal
:func:`~repro.stream.sweep.sweep_point` field for field, whatever the
point, the block size, the checkpoint interval or the kill.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.sched import stitch_point
from repro.sched.units import Boundary, PointPlan, plan_point
from repro.sched.worker import run_unit
from repro.stream.shard import ShardStore
from repro.stream.sweep import lognormal_pool, sweep_point

POOL = lognormal_pool(seed=7)


def _run_chain(pool, plan, start, config, units, store=None):
    """Run ``units`` in order from ``start``; returns their results
    (each also put to ``store`` when one is given)."""
    results = []
    for unit in units:
        arrays, meta = run_unit(pool, plan, unit, start, config=config)
        if store is not None:
            store.put(f"unit-{unit.index:04d}", arrays, meta)
        results.append((arrays, meta))
        start = Boundary.from_shard(arrays, meta)
    return results


@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(1, 60), seed=st.integers(0, 2**16),
       n_channels=st.integers(1, 30),
       block_arrivals=st.integers(8, 64), unit_blocks=st.integers(1, 5),
       kill=st.integers(0, 1000))
def test_stitch_equals_serial_chain_on_fuzzed_streams(
        n_users, seed, n_channels, block_arrivals, unit_blocks, kill):
    config = CapacityConfig(n_channels=n_channels, horizon=300.0, seed=3)
    plan, origin = plan_point(POOL, n_users, seed, config=config,
                              block_arrivals=block_arrivals,
                              unit_blocks=unit_blocks)
    kill %= len(plan.units) + 1
    with tempfile.TemporaryDirectory() as root:
        _run_chain(POOL, plan, origin, config, plan.units[:kill],
                   ShardStore(root, "chain"))
        # The resume knows only the spec and the published shards.
        store = ShardStore(root, "chain")
        published = [store.get(f"unit-{u:04d}") for u in range(kill)]
        if kill:
            start = Boundary.from_shard(*published[-1])
            resumed = PointPlan.tile(
                n_users, seed, start.source_state["n_sessions"],
                block_arrivals=block_arrivals, unit_blocks=unit_blocks)
            assert resumed == plan
        else:
            resumed, start = plan_point(
                POOL, n_users, seed, config=config,
                block_arrivals=block_arrivals, unit_blocks=unit_blocks)
        rest = _run_chain(POOL, resumed, start, config,
                          resumed.units[kill:], store)
    stitched = stitch_point(resumed, published + rest)
    serial = sweep_point(CapacitySimulator(POOL, config), n_users, seed,
                         block_arrivals=block_arrivals)
    assert stitched == serial


def test_stitch_is_exact_when_frontiers_never_coincide():
    """Services far longer than the horizon: every channel stays busy
    from the first block on, so no unit boundary ever sees an empty
    frontier (the case an empty-carry speculation can only get right
    by replaying the whole unit).  The exact carry still gives the
    serial point."""
    pool = np.full(4, 5000.0)
    config = CapacityConfig(n_channels=3, horizon=200.0, seed=3)
    plan, origin = plan_point(pool, 20, 5, config=config,
                              block_arrivals=16, unit_blocks=2)
    results = _run_chain(pool, plan, origin, config, plan.units)
    assert len(results) >= 3
    assert all(arrays["busy"].size == 3 for arrays, _ in results)
    stitched = stitch_point(plan, results)
    assert stitched.dropped == stitched.sessions - 3
    assert stitched == sweep_point(CapacitySimulator(pool, config), 20,
                                   5, block_arrivals=16)


def test_stitch_point_matches_serial_sweep_point():
    """End to end through the real source: scan, run the chain, stitch
    — dataclass-equal to the serial point."""
    config = CapacityConfig(n_channels=100, horizon=400.0, seed=3)
    simulator = CapacitySimulator(POOL, config)
    serial = sweep_point(simulator, 2500, 13, block_arrivals=512)
    for unit_blocks in (1, 2, 5):
        plan, origin = plan_point(POOL, 2500, 13, config=config,
                                  block_arrivals=512,
                                  unit_blocks=unit_blocks)
        results = _run_chain(POOL, plan, origin, config, plan.units)
        assert stitch_point(plan, results) == serial


def test_stitch_point_rejects_out_of_order_results():
    config = CapacityConfig(n_channels=100, horizon=300.0, seed=3)
    plan, origin = plan_point(POOL, 2000, 13, config=config,
                              block_arrivals=512, unit_blocks=1)
    results = _run_chain(POOL, plan, origin, config, plan.units)
    assert len(results) >= 2
    results[0], results[1] = results[1], results[0]
    try:
        stitch_point(plan, results)
    except ValueError as err:
        assert "out of order" in str(err)
    else:
        raise AssertionError("out-of-order results must be rejected")
