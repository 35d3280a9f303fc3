"""Batched Erlang-loss drop resolution vs the scalar heap loop.

``chained_drops``/``chained_blocks`` chain the kernel's
``resolve_drops_block`` over an in-memory stream, the shape every
capacity run feeds it from its block source."""

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
from repro.fleet.capacity import resolve_drops_block
from repro.units import hours
from tests.oracles import capacity as oracle
from tests.oracles.capacity import chained_blocks, chained_drops, \
    heap_drops


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
        got = chained_drops(arrivals, services, n_channels)
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("seed", range(6))
def test_resolver_matches_with_tiny_blocks_and_budget(seed):
    """Small blocks exercise the carry/boundary bookkeeping; a sweep
    budget of 1-2 forces the scalar block fallback mid-stream."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        arrivals, services, n_channels = _random_case(rng)
        expected = heap_drops(arrivals, services, n_channels)
        block = int(rng.integers(3, 64))
        budget = int(rng.integers(1, 4))
        got = chained_drops(arrivals, services, n_channels,
                            block_arrivals=block, max_sweeps=budget)
        np.testing.assert_array_equal(got, expected)


def _spy_on_block_paths(monkeypatch, arrivals):
    """Record ``(path, first_arrival_index)`` for every block the chained
    resolver sends through ``_block_fixpoint`` or ``_scalar_block``."""
    import repro.fleet.capacity as fleet_capacity

    calls = []

    def spy(name):
        original = getattr(fleet_capacity, name)

        def wrapped(blk_arrivals, *args):
            calls.append((name, int(np.searchsorted(arrivals,
                                                    blk_arrivals[0]))))
            return original(blk_arrivals, *args)
        monkeypatch.setattr(fleet_capacity, name, wrapped)

    spy("_block_fixpoint")
    spy("_scalar_block")
    return calls


def _idle_then_burst(rng, n_idle=130, n_burst=300):
    idle_arrivals = np.cumsum(rng.exponential(50.0, size=n_idle))
    idle_services = rng.uniform(0.5, 2.0, size=n_idle)
    burst_arrivals = idle_arrivals[-1] + np.cumsum(
        rng.exponential(0.05, size=n_burst))
    burst_services = rng.uniform(10.0, 40.0, size=n_burst)
    return (np.concatenate([idle_arrivals, burst_arrivals]),
            np.concatenate([idle_services, burst_services]))


def test_scalar_block_fallback_fires_and_matches_vectorised(monkeypatch):
    """Regression for the budget path: when a block exhausts its sweep
    budget, ``_scalar_block`` replays it and the chained result must be
    identical to the unbudgeted vectorised resolver.

    The stream is built so the fallback fires past the first block: an
    idle prefix (drop-free blocks converge in one sweep even with
    ``max_sweeps=1``) followed by a saturated tail whose first drop
    candidate blows the budget."""
    arrivals, services = _idle_then_burst(np.random.default_rng(17))
    n_channels = 4

    expected = heap_drops(arrivals, services, n_channels)
    unbudgeted = chained_drops(arrivals, services, n_channels)
    np.testing.assert_array_equal(unbudgeted, expected)

    calls = _spy_on_block_paths(monkeypatch, arrivals)
    budgeted = chained_drops(arrivals, services, n_channels,
                             block_arrivals=64, max_sweeps=1)
    starts = [start for name, start in calls if name == "_scalar_block"]
    assert starts, "sweep budget of 1 must trigger the scalar fallback"
    assert starts[0] > 0, "fallback should start past converged blocks"
    np.testing.assert_array_equal(budgeted, expected)


def test_scalar_block_fallback_from_first_block(monkeypatch):
    """Saturation from the very first arrival exercises the fallback's
    empty-frontier seeding path (first block)."""
    rng = np.random.default_rng(23)
    arrivals = np.cumsum(rng.exponential(0.05, size=400))
    services = rng.uniform(10.0, 40.0, size=400)
    expected = heap_drops(arrivals, services, 3)
    calls = _spy_on_block_paths(monkeypatch, arrivals)
    budgeted = chained_drops(arrivals, services, 3,
                             block_arrivals=64, max_sweeps=1)
    assert ("_scalar_block", 0) in calls
    np.testing.assert_array_equal(budgeted, expected)
    np.testing.assert_array_equal(chained_drops(arrivals, services, 3),
                                  expected)


def test_block_after_budget_fallback_returns_to_fixpoint(monkeypatch):
    """A budget-exhausted block replays only itself: the next block runs
    the vectorised ``_block_fixpoint`` again, and once the burst has
    drained it converges there without another scalar replay."""
    rng = np.random.default_rng(29)
    arrivals, services = _idle_then_burst(rng)
    tail_arrivals = arrivals[-1] + 100.0 + np.cumsum(
        rng.exponential(50.0, size=130))
    arrivals = np.concatenate([arrivals, tail_arrivals])
    services = np.concatenate([services, rng.uniform(0.5, 2.0, size=130)])
    n_channels = 4

    calls = _spy_on_block_paths(monkeypatch, arrivals)
    budgeted = chained_drops(arrivals, services, n_channels,
                             block_arrivals=64, max_sweeps=1)
    np.testing.assert_array_equal(
        budgeted, heap_drops(arrivals, services, n_channels))
    first_scalar = next(i for i, (name, _) in enumerate(calls)
                        if name == "_scalar_block")
    after = calls[first_scalar + 1:]
    assert after and after[0][0] == "_block_fixpoint"
    assert after[0][1] > calls[first_scalar][1]
    assert calls[-1][0] == "_block_fixpoint", \
        "the drained tail must converge on the vectorised path"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.floats(min_value=0.01, max_value=50.0)),
                min_size=1, max_size=80),
       st.integers(min_value=1, max_value=5))
def test_resolver_matches_on_arbitrary_floats(pairs, n_channels):
    arrivals = np.sort(np.array([a for a, _ in pairs]))
    services = np.array([s for _, s in pairs])
    expected = heap_drops(arrivals, services, n_channels)
    got = chained_drops(arrivals, services, n_channels,
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
    and threading the DropCarry yields the same mask as the whole
    stream chained in 4,096-arrival blocks.  Times are half-integers, so
    arrival/departure/boundary ties are exact."""
    gaps = np.array([g for g, _ in pairs], dtype=float) * 0.5
    services = np.array([s for _, s in pairs], dtype=float) * 0.5
    arrivals = np.cumsum(gaps)
    expected = chained_drops(arrivals, services, n_channels)

    cut = int(round(cut_frac * arrivals.size))
    head_mask, carry = resolve_drops_block(arrivals[:cut],
                                           services[:cut], n_channels)
    tail_mask, _ = resolve_drops_block(arrivals[cut:], services[cut:],
                                       n_channels, carry)
    np.testing.assert_array_equal(
        np.concatenate([head_mask, tail_mask]), expected)


def test_empty_stream():
    empty = np.empty(0)
    mask, carry = resolve_drops_block(empty, empty, 5)
    assert mask.size == 0 and carry.busy.size == 0
    assert chained_drops(empty, empty, 5).size == 0


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
            patch.setattr(capacity_simulator, "resolve_drops_block",
                          oracle.resolve_drops_block)
            slow = simulator.run(n_users)
        assert fast == slow


def test_capacity_search_identical_to_slow(monkeypatch):
    rng = np.random.default_rng(4)
    pool = rng.lognormal(np.log(14.0), 0.5, size=200)
    simulator = CapacitySimulator(
        pool, CapacityConfig(n_channels=50, horizon=hours(0.1), seed=2))
    fast = capacity_at_drop_target(simulator, 0.02, seed=2)
    monkeypatch.setattr(capacity_simulator, "resolve_drops_block",
                        oracle.resolve_drops_block)
    slow = capacity_at_drop_target(simulator, 0.02, seed=2)
    assert fast == slow


@pytest.mark.parametrize("seed", range(4))
def test_drop_blocks_match_block_heap_oracle(seed):
    """Block for block, the kernel's masks are the carried heap's."""
    rng = np.random.default_rng(200 + seed)
    for _ in range(10):
        arrivals, services, n_channels = _random_case(rng)
        block = int(rng.integers(3, 64))
        got = list(chained_blocks(arrivals, services, n_channels, block))
        expected = list(chained_blocks(
            arrivals, services, n_channels, block,
            resolve=oracle.resolve_drops_block))
        assert len(got) == len(expected) == -(-arrivals.size // block)
        for mask, reference in zip(got, expected):
            np.testing.assert_array_equal(mask, reference)
