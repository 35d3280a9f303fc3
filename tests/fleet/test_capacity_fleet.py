"""Batched Erlang-loss drop resolution vs the scalar heap loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.capacity.simulator as capacity_simulator
from repro.capacity.simulator import (
    CapacityConfig,
    CapacitySimulator,
    capacity_at_drop_target,
)
from repro.fleet.capacity import resolve_drops, resolve_drops_block
from repro.units import hours
from tests.oracles import capacity as oracle
from tests.oracles.capacity import heap_drops


def _random_case(rng):
    m = int(rng.integers(1, 400))
    gaps = rng.exponential(rng.uniform(0.2, 3.0), size=m)
    arrivals = np.cumsum(gaps)
    if rng.random() < 0.3:
        # Exact ties: duplicated arrival instants and rounded times so
        # departures collide with arrivals.
        arrivals = np.sort(np.round(arrivals, 1))
    services = rng.uniform(0.5, 30.0, size=m)
    if rng.random() < 0.3:
        services = np.maximum(np.round(services, 1), 0.1)
    n_channels = int(rng.integers(1, 40))
    return arrivals, services, n_channels


@pytest.mark.parametrize("seed", range(12))
def test_resolver_matches_heap_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        arrivals, services, n_channels = _random_case(rng)
        expected = heap_drops(arrivals, services, n_channels)
        got = resolve_drops(arrivals, services, n_channels)
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("seed", range(6))
def test_resolver_matches_with_tiny_blocks_and_budget(seed):
    """Small blocks exercise the carry/boundary bookkeeping; a sweep
    budget of 1-2 forces the scalar-tail fallback mid-stream."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        arrivals, services, n_channels = _random_case(rng)
        expected = heap_drops(arrivals, services, n_channels)
        block = int(rng.integers(3, 64))
        budget = int(rng.integers(1, 4))
        got = resolve_drops(arrivals, services, n_channels,
                            block_arrivals=block, max_sweeps=budget)
        np.testing.assert_array_equal(got, expected)


def test_scalar_tail_fallback_fires_and_matches_vectorised():
    """Regression for the budget path: when a block exhausts its sweep
    budget, ``_scalar_tail`` takes over mid-stream and the combined
    result must be identical to the unbudgeted vectorised resolver.

    The stream is built so the fallback fires with ``start > 0``: an
    idle prefix (drop-free blocks converge in one sweep even with
    ``max_sweeps=1``) followed by a saturated tail whose first drop
    candidate blows the budget."""
    import repro.fleet.capacity as fleet_capacity

    rng = np.random.default_rng(17)
    idle_arrivals = np.cumsum(rng.exponential(50.0, size=130))
    idle_services = rng.uniform(0.5, 2.0, size=130)
    burst_arrivals = idle_arrivals[-1] + np.cumsum(
        rng.exponential(0.05, size=300))
    burst_services = rng.uniform(10.0, 40.0, size=300)
    arrivals = np.concatenate([idle_arrivals, burst_arrivals])
    services = np.concatenate([idle_services, burst_services])
    n_channels = 4

    expected = heap_drops(arrivals, services, n_channels)
    unbudgeted = resolve_drops(arrivals, services, n_channels)
    np.testing.assert_array_equal(unbudgeted, expected)

    starts = []
    original = fleet_capacity._scalar_tail

    def spy(arrivals, services, n_channels, dropped, start):
        starts.append(start)
        return original(arrivals, services, n_channels, dropped, start)

    fleet_capacity._scalar_tail = spy
    try:
        budgeted = resolve_drops(arrivals, services, n_channels,
                                 block_arrivals=64, max_sweeps=1)
    finally:
        fleet_capacity._scalar_tail = original

    assert starts, "sweep budget of 1 must trigger the scalar tail"
    assert starts[0] > 0, "fallback should start past converged blocks"
    np.testing.assert_array_equal(budgeted, expected)


def test_scalar_tail_from_first_block():
    """Saturation from the very first arrival exercises the fallback's
    empty-heap seeding path (``start == 0``)."""
    rng = np.random.default_rng(23)
    arrivals = np.cumsum(rng.exponential(0.05, size=400))
    services = rng.uniform(10.0, 40.0, size=400)
    expected = heap_drops(arrivals, services, 3)
    budgeted = resolve_drops(arrivals, services, 3,
                             block_arrivals=64, max_sweeps=1)
    np.testing.assert_array_equal(budgeted, expected)
    np.testing.assert_array_equal(resolve_drops(arrivals, services, 3),
                                  expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.floats(min_value=0.01, max_value=50.0)),
                min_size=1, max_size=80),
       st.integers(min_value=1, max_value=5))
def test_resolver_matches_on_arbitrary_floats(pairs, n_channels):
    arrivals = np.sort(np.array([a for a, _ in pairs]))
    services = np.array([s for _, s in pairs])
    expected = heap_drops(arrivals, services, n_channels)
    got = resolve_drops(arrivals, services, n_channels,
                        block_arrivals=7)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 60)),
                      min_size=1, max_size=60),
       n_channels=st.integers(min_value=1, max_value=4),
       cut_frac=st.floats(min_value=0.0, max_value=1.0))
# Departure exactly on the block-boundary arrival: session 0 departs at
# 0 + 2.0 == arrival of the first session of block 2 (cut at index 2).
@example(pairs=[(0, 4), (4, 2), (0, 2)], n_channels=1, cut_frac=0.67)
# Cut *between* two equal arrival instants, tying with a departure.
@example(pairs=[(0, 4), (4, 2), (0, 4), (0, 2)], n_channels=1,
         cut_frac=0.5)
def test_cut_point_parity_with_whole_stream(pairs, n_channels,
                                            cut_frac):
    """Property: splitting a stream into two blocks at *any* cut point
    and threading the DropCarry yields the same mask as resolve_drops
    on the whole stream.  Times are half-integers, so
    arrival/departure/boundary ties are exact."""
    gaps = np.array([g for g, _ in pairs], dtype=float) * 0.5
    services = np.array([s for _, s in pairs], dtype=float) * 0.5
    arrivals = np.cumsum(gaps)
    expected = resolve_drops(arrivals, services, n_channels)

    cut = int(round(cut_frac * arrivals.size))
    head_mask, carry = resolve_drops_block(arrivals[:cut],
                                           services[:cut], n_channels)
    tail_mask, _ = resolve_drops_block(arrivals[cut:], services[cut:],
                                       n_channels, carry)
    np.testing.assert_array_equal(
        np.concatenate([head_mask, tail_mask]), expected)


def test_empty_stream():
    empty = np.empty(0)
    assert resolve_drops(empty, empty, 5).size == 0


def test_simulator_fleet_path_identical_to_slow(monkeypatch):
    """CapacitySimulator.run keeps the RNG stream; only the drop
    resolution changes — the CapacityResult must be identical."""
    rng = np.random.default_rng(3)
    pool = rng.lognormal(np.log(14.0), 0.5, size=300)
    simulator = CapacitySimulator(
        pool, CapacityConfig(horizon=hours(0.25), seed=9))
    for n_users in (150, 300, 420, 700):
        fast = simulator.run(n_users)
        with monkeypatch.context() as patch:
            patch.setattr(capacity_simulator, "resolve_drops",
                          oracle.resolve_drops)
            slow = simulator.run(n_users)
        assert fast == slow


def test_capacity_search_identical_to_slow(monkeypatch):
    rng = np.random.default_rng(4)
    pool = rng.lognormal(np.log(14.0), 0.5, size=200)
    simulator = CapacitySimulator(
        pool, CapacityConfig(n_channels=50, horizon=hours(0.1), seed=2))
    fast = capacity_at_drop_target(simulator, 0.02, seed=2)
    monkeypatch.setattr(capacity_simulator, "resolve_drops",
                        oracle.resolve_drops)
    slow = capacity_at_drop_target(simulator, 0.02, seed=2)
    assert fast == slow
