"""Chained block-wise drop resolution vs the heap reference.

:func:`repro.fleet.capacity.resolve_drops_block` threads a
:class:`DropCarry` between arbitrary consecutive chunks of one arrival
stream; the concatenated masks must equal both the scalar heap replay
and the in-memory chain of 4,096-arrival blocks
(:func:`tests.oracles.capacity.chained_drops`), and the carried frontier
must respect its invariants (bounded by ``n_channels``, strictly after
the boundary)."""

import numpy as np
import pytest

from repro.fleet import capacity as fleet_capacity
from repro.fleet.capacity import DropCarry, resolve_drops_block
from repro.runtime.observability import collecting
from repro.sim.kernel import SimulationError
from tests.oracles.capacity import chained_drops, heap_drops


def _random_case(rng):
    m = int(rng.integers(1, 500))
    gaps = rng.exponential(rng.uniform(0.2, 3.0), size=m)
    arrivals = np.cumsum(gaps)
    if rng.random() < 0.3:
        arrivals = np.sort(np.round(arrivals, 1))
    services = rng.uniform(0.5, 30.0, size=m)
    if rng.random() < 0.3:
        services = np.maximum(np.round(services, 1), 0.1)
    n_channels = int(rng.integers(1, 12))
    return arrivals, services, n_channels


def _chain(arrivals, services, n_channels, rng, force_budget):
    """Feed random-size chunks (including empty ones) through the block
    resolver, occasionally strangling the sweep budget to exercise the
    scalar fallback mid-chain."""
    carry = DropCarry.empty()
    masks = []
    i = 0
    m = arrivals.size
    while i < m:
        size = int(rng.integers(0, max(2, m // 3)))
        blk = slice(i, min(m, i + size))
        budget = 1 if (force_budget and rng.random() < 0.3) else 40
        mask, carry = resolve_drops_block(
            arrivals[blk], services[blk], n_channels, carry,
            max_sweeps=budget)
        masks.append(mask)
        assert carry.busy.size <= n_channels
        assert (carry.busy > carry.boundary).all()
        i = blk.stop
    return np.concatenate(masks) if masks else np.empty(0, dtype=bool)


@pytest.mark.parametrize("seed", range(10))
def test_chained_blocks_match_heap_and_whole_array(seed):
    rng = np.random.default_rng(seed)
    for trial in range(20):
        arrivals, services, n_channels = _random_case(rng)
        expected = heap_drops(arrivals, services, n_channels)
        whole = chained_drops(arrivals, services, n_channels)
        chained = _chain(arrivals, services, n_channels, rng,
                         force_budget=(trial % 2 == 0))
        np.testing.assert_array_equal(chained, expected)
        np.testing.assert_array_equal(whole, expected)


def test_empty_block_passes_carry_through():
    carry = DropCarry(busy=np.array([5.0, 7.0]), boundary=4.0)
    mask, after = resolve_drops_block(np.empty(0), np.empty(0), 3, carry)
    assert mask.size == 0
    np.testing.assert_array_equal(after.busy, carry.busy)
    assert after.boundary == carry.boundary


def test_empty_block_after_real_block_returns_same_carry():
    _, carry = resolve_drops_block(np.array([0.0, 1.0]),
                                   np.array([5.0, 5.0]), 4)
    empty = np.empty(0)
    mask, same = resolve_drops_block(empty, empty, 4, carry)
    assert mask.size == 0
    assert same is carry


def test_single_session_blocks():
    """block size 1 is the fully-degenerate chaining: every session is
    its own block, so every drop decision flows through the carry."""
    rng = np.random.default_rng(42)
    arrivals = np.cumsum(rng.exponential(1.0, size=200))
    services = rng.uniform(0.5, 20.0, size=200)
    expected = heap_drops(arrivals, services, 4)
    carry = DropCarry.empty()
    got = np.empty(200, dtype=bool)
    for i in range(200):
        mask, carry = resolve_drops_block(arrivals[i:i + 1],
                                          services[i:i + 1], 4, carry)
        got[i] = mask[0]
    np.testing.assert_array_equal(got, expected)


def test_carry_nbytes_bounded_by_channels():
    rng = np.random.default_rng(1)
    arrivals = np.cumsum(rng.exponential(0.05, size=5000))
    services = rng.uniform(5.0, 50.0, size=5000)
    carry = DropCarry.empty()
    for i in range(0, 5000, 250):
        _, carry = resolve_drops_block(arrivals[i:i + 250],
                                       services[i:i + 250], 8, carry)
        assert carry.nbytes <= 8 * 8 + 8


def test_budget_fallback_matches_reference():
    """A block that exhausts its sweep budget is replayed by the scalar
    heap seeded from the carried frontier; the chained masks must still
    match the heap reference over the whole stream exactly."""
    rng = np.random.default_rng(17)
    arrivals = np.cumsum(rng.exponential(0.05, size=300))
    services = rng.uniform(10.0, 40.0, size=300)
    head, carry = resolve_drops_block(arrivals[:150], services[:150], 4,
                                      max_sweeps=1)
    tail, _ = resolve_drops_block(arrivals[150:], services[150:], 4,
                                  carry, max_sweeps=1)
    np.testing.assert_array_equal(tail, heap_drops(
        arrivals[150:], services[150:], 4, busy=carry.busy))
    np.testing.assert_array_equal(np.concatenate([head, tail]),
                                  heap_drops(arrivals, services, 4))


def test_unsorted_arrivals_raise_on_every_path():
    """[5, 0, 1] with one channel used to drop two sessions where the
    sorted stream drops none."""
    arrivals = np.array([5.0, 0.0, 1.0])
    services = np.ones(3)
    with pytest.raises(ValueError, match="non-decreasing"):
        chained_drops(arrivals, services, 1)
    with pytest.raises(ValueError, match="non-decreasing"):
        resolve_drops_block(arrivals, services, 1)
    # sanity: the sorted stream is accepted and drop-free
    assert not chained_drops(np.sort(arrivals), services, 1).any()


def test_nonfinite_sessions_raise_on_every_path():
    """A NaN service used to be marked accepted while never occupying a
    channel."""
    arrivals = np.array([0.0, 1.0, 2.0])
    nan_services = np.array([1.0, np.nan, 1.0])
    inf_arrivals = np.array([0.0, np.inf, np.inf])
    for bad_arr, bad_srv in ((arrivals, nan_services),
                             (inf_arrivals, np.ones(3))):
        with pytest.raises(SimulationError, match="finite"):
            chained_drops(bad_arr, bad_srv, 2)
        with pytest.raises(SimulationError, match="finite"):
            resolve_drops_block(bad_arr, bad_srv, 2)


def test_shape_mismatch_raises():
    for resolve in (chained_drops, resolve_drops_block):
        with pytest.raises(ValueError, match="matching shapes"):
            resolve(np.array([0.0, 1.0]), np.array([1.0]), 2)
    # An empty block is validated too, not returned before the check.
    with pytest.raises(ValueError, match="matching shapes"):
        resolve_drops_block(np.empty(0), np.ones(3), 2)


def test_non_1d_streams_raise():
    """A 2-D stream used to die inside the kernel with numpy's
    ambiguous-truth-value error instead of naming the shape."""
    grid = np.arange(4.0).reshape(2, 2)
    for resolve in (chained_drops, resolve_drops_block):
        with pytest.raises(ValueError, match="1-D"):
            resolve(grid, np.ones((2, 2)), 2)


def test_boundary_violation_raises():
    """A block starting before the carried boundary breaks the
    one-stream contract and must refuse."""
    services = np.array([1.0, 1.0])
    _, carry = resolve_drops_block(np.array([0.0, 4.0]), services, 2)
    with pytest.raises(ValueError, match="boundary"):
        resolve_drops_block(np.array([2.0, 5.0]), services, 2, carry)


def test_float32_carry_dtype_stable():
    """float32 blocks used to come back with a float64 frontier after
    one block (the empty float64 carry promoted the concatenate); the
    carry dtype is now the block dtype, every block."""
    rng = np.random.default_rng(5)
    arrivals = np.cumsum(rng.exponential(1.0, size=64)).astype(np.float32)
    services = rng.uniform(0.5, 30.0, size=64).astype(np.float32)
    carry = None
    for lo in range(0, 64, 16):
        blk = slice(lo, lo + 16)
        _, carry = resolve_drops_block(arrivals[blk], services[blk], 4,
                                       carry)
        assert carry.busy.dtype == np.float32


def _saturated_stream(n_channels, factor, seed=7, m=140_000,
                      mean_service=30.0):
    """Poisson arrivals offered ``factor`` times the cell's capacity:
    the binary-search probes above capacity that cascade each stream
    block through many sweeps."""
    rng = np.random.default_rng(seed)
    rate = factor * n_channels / mean_service
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=m))
    services = rng.exponential(mean_service, size=m)
    return arrivals, services


def _stream_blocks(arrivals, services, n_channels,
                   max_sweeps=fleet_capacity._MAX_SWEEPS):
    """Chain 65,536-arrival stream blocks through the resolver and
    check each returned carry against the heap oracle byte for byte:
    the entering frontier past the block's last arrival, then the
    block's surviving departures past it, both in their original order
    — the layout checkpoint shards store raw."""
    carry = DropCarry.empty()
    masks = []
    for start in range(0, arrivals.size, 65536):
        arr = arrivals[start:start + 65536]
        srv = services[start:start + 65536]
        busy_in = carry.busy
        mask, carry = resolve_drops_block(arr, srv, n_channels, carry,
                                          max_sweeps=max_sweeps)
        heap_mask = heap_drops(arr, srv, n_channels, busy=busy_in)
        np.testing.assert_array_equal(mask, heap_mask)
        boundary = float(arr[-1])
        survivors = (arr + srv)[~heap_mask]
        expected = np.concatenate([busy_in[busy_in > boundary],
                                   survivors[survivors > boundary]])
        assert carry.boundary == boundary
        assert carry.busy.tobytes() == expected.tobytes()
        masks.append(mask)
    return np.concatenate(masks)


@pytest.mark.parametrize("n_channels, factor, work_units", [
    (2000, 1.5, 3063553),
    (2000, 2.0, 2483961),
    (2000, 3.0, 2067721),
    # blocks past the sweep budget: the scalar replay's units included
    (200, 2.0, 10368256),
])
def test_stream_size_blocks_match_heap_with_pinned_work(
        monkeypatch, n_channels, factor, work_units):
    """The per-slice fixpoint itself is unchanged by slicing: with the
    slice size raised to the stream block size (65,536 arrivals) every
    block is one slice again, saturated blocks run dozens of suffix
    sweeps, and the mask must equal the heap replay and the kernel's
    ``work_units`` the count pinned before blocks were sliced, i.e. the
    same sweeps over the same suffixes."""
    monkeypatch.setattr(fleet_capacity, "_BLOCK_ARRIVALS", 65536)
    arrivals, services = _saturated_stream(n_channels, factor)
    with collecting() as stats:
        mask = chained_drops(arrivals, services, n_channels,
                             block_arrivals=65536)
    assert np.array_equal(mask, heap_drops(arrivals, services,
                                           n_channels))
    assert stats.snapshot().work_units == work_units


@pytest.mark.parametrize("n_channels, factor, work_units", [
    (2000, 1.5, 731287),
    (2000, 2.0, 705716),
    (2000, 3.0, 663423),
    # the 200-channel stream no longer reaches the scalar replay
    (200, 2.0, 1782510),
])
def test_stream_size_blocks_slice_with_pinned_work(
        n_channels, factor, work_units):
    """A stream-size block (65,536 arrivals) is resolved as chained
    4,096-arrival slices, each running its own suffix sweeps; the mask
    and the carry must equal the heap replay and the kernel's
    ``work_units`` the pinned count, i.e. the same sweeps over the same
    suffixes."""
    arrivals, services = _saturated_stream(n_channels, factor)
    with collecting() as stats:
        mask = _stream_blocks(arrivals, services, n_channels)
    assert np.array_equal(mask, heap_drops(arrivals, services,
                                           n_channels))
    assert stats.snapshot().work_units == work_units


def test_stream_size_block_slices_fall_back_to_scalar(monkeypatch):
    """With a two-sweep budget the saturated slices of a stream-size
    block exhaust it and replay through the scalar heap one slice at a
    time; the mask and the carry must still equal the heap replay."""
    replayed = []
    scalar_block = fleet_capacity._scalar_block

    def counting(arrivals, *args):
        replayed.append(arrivals.size)
        return scalar_block(arrivals, *args)

    monkeypatch.setattr(fleet_capacity, "_scalar_block", counting)
    arrivals, services = _saturated_stream(200, 2.0, m=65536)
    mask = _stream_blocks(arrivals, services, 200, max_sweeps=2)
    assert np.array_equal(mask, heap_drops(arrivals, services, 200))
    assert replayed and max(replayed) <= fleet_capacity._BLOCK_ARRIVALS
