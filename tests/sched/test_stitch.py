"""The carry-chain stitch is exact: speculative units + frontier
replay reproduce the serial drop chain on arbitrary fuzzed streams.

The hypothesis harness here drives :func:`resolve_drops_block`
directly (no arrival source in the way): generate a raw stream, cut it
into blocks and blocks into units, resolve every unit speculatively
from an empty carry, then stitch with replay-until-coincidence exactly
as :mod:`repro.sched.stitch` does — the dropped count and the final
frontier multiset must equal the serial carry-threaded chain, whatever
the stream, the cuts, or whether coincidence ever happens.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.simulator import CapacityConfig
from repro.fleet.capacity import DropCarry, resolve_drops_block
from repro.sched import stitch_point
from repro.sched.units import plan_point
from repro.sched.worker import frontier_digest, run_unit
from repro.stream.sweep import lognormal_pool, sweep_point
from repro.capacity.simulator import CapacitySimulator


def _cut(seq, sizes):
    out, i = [], 0
    for size in sizes:
        out.append(seq[i:i + size])
        i += size
    if i < len(seq):
        out.append(seq[i:])
    return [c for c in out if len(c)]


@st.composite
def stream_case(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    gaps = draw(st.lists(st.floats(0.0, 5.0, allow_nan=False),
                         min_size=n, max_size=n))
    services = draw(st.lists(st.floats(0.1, 40.0, allow_nan=False),
                             min_size=n, max_size=n))
    n_channels = draw(st.integers(min_value=1, max_value=4))
    block_sizes = draw(st.lists(st.integers(1, 7), min_size=1,
                                max_size=n))
    unit_blocks = draw(st.integers(min_value=1, max_value=4))
    arrivals = np.cumsum(np.asarray(gaps, dtype=float))
    return (arrivals, np.asarray(services, dtype=float), n_channels,
            block_sizes, unit_blocks)


def _serial_chain(blocks, n_channels):
    carry = DropCarry.empty()
    dropped = 0
    for arrivals, services in blocks:
        mask, carry = resolve_drops_block(arrivals, services,
                                          n_channels, carry)
        dropped += int(mask.sum())
    return dropped, carry


def _speculative_units(blocks, n_channels, unit_blocks):
    units = []
    for start in range(0, len(blocks), unit_blocks):
        chunk = blocks[start:start + unit_blocks]
        carry = DropCarry.empty()
        per_block, digests = [], []
        for arrivals, services in chunk:
            mask, carry = resolve_drops_block(arrivals, services,
                                              n_channels, carry)
            per_block.append(int(mask.sum()))
            digests.append(frontier_digest(carry))
        units.append((chunk, per_block, digests, carry))
    return units


def _stitched(units, n_channels):
    carry = DropCarry.empty()
    dropped = 0
    for chunk, per_block, digests, final in units:
        if np.asarray(carry.busy).size == 0:
            dropped += sum(per_block)
            carry = final
            continue
        matched_at = None
        for j, (arrivals, services) in enumerate(chunk):
            mask, carry = resolve_drops_block(arrivals, services,
                                              n_channels, carry)
            dropped += int(mask.sum())
            if frontier_digest(carry) == digests[j]:
                matched_at = j
                break
        if matched_at is not None and matched_at + 1 < len(chunk):
            dropped += sum(per_block[matched_at + 1:])
            carry = final
    return dropped, carry


@settings(max_examples=120, deadline=None)
@given(stream_case())
def test_stitch_equals_serial_chain_on_fuzzed_streams(case):
    arrivals, services, n_channels, block_sizes, unit_blocks = case
    blocks = list(zip(_cut(arrivals, block_sizes),
                      _cut(services, block_sizes)))
    serial_dropped, serial_carry = _serial_chain(blocks, n_channels)
    units = _speculative_units(blocks, n_channels, unit_blocks)
    stitched_dropped, stitched_carry = _stitched(units, n_channels)
    assert stitched_dropped == serial_dropped
    assert frontier_digest(stitched_carry) \
        == frontier_digest(serial_carry)


def test_stitch_is_exact_when_frontiers_never_coincide():
    """Services much longer than a block: the frontier never forgets
    its past inside a unit, coincidence never fires, and the stitch
    degenerates to the full serial replay — still exact."""
    arrivals = np.arange(1.0, 25.0)
    services = np.full(arrivals.size, 1000.0)
    blocks = [(arrivals[i:i + 2], services[i:i + 2])
              for i in range(0, arrivals.size, 2)]
    serial_dropped, serial_carry = _serial_chain(blocks, 3)
    units = _speculative_units(blocks, 3, 2)
    stitched_dropped, stitched_carry = _stitched(units, 3)
    assert stitched_dropped == serial_dropped
    assert frontier_digest(stitched_carry) \
        == frontier_digest(serial_carry)


def test_stitch_point_matches_serial_sweep_point():
    """End to end through the real source: plan, run every unit
    speculatively, stitch — dataclass-equal to the serial point."""
    pool = lognormal_pool(seed=7)
    config = CapacityConfig(n_channels=100, horizon=400.0, seed=3)
    simulator = CapacitySimulator(pool, config)
    for unit_blocks in (1, 2, 5):
        plan = plan_point(pool, 2500, 13, config=config,
                          block_arrivals=512,
                          unit_blocks=unit_blocks)
        results = [run_unit(pool, plan, unit, config=config)
                   for unit in plan.units]
        stitched = stitch_point(pool, plan, results, config=config)
        serial = sweep_point(simulator, 2500, 13, block_arrivals=512)
        assert stitched == serial


def test_stitch_point_rejects_out_of_order_results():
    pool = lognormal_pool(seed=7)
    config = CapacityConfig(n_channels=100, horizon=300.0, seed=3)
    plan = plan_point(pool, 2000, 13, config=config,
                      block_arrivals=512, unit_blocks=1)
    results = [run_unit(pool, plan, unit, config=config)
               for unit in plan.units]
    assert len(results) >= 2
    results[0], results[1] = results[1], results[0]
    try:
        stitch_point(pool, plan, results, config=config)
    except ValueError as err:
        assert "out of order" in str(err)
    else:
        raise AssertionError("out-of-order results must be rejected")
