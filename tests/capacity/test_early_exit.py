"""The capacity search's one-bit probes.

``exceeds_drop_target`` must answer exactly what a full run would
(``run(n).drop_probability > target``), and on the M/G/N model it must
get there without resolving every arrival block of a saturated probe.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.capacity.simulator as capacity_simulator
from repro.capacity.finite_source import FiniteSourceCapacitySimulator
from repro.capacity.simulator import (
    CapacityConfig,
    CapacitySimulator,
    capacity_at_drop_target,
)
from tests.oracles.capacity import chained_blocks, draw


def _full_run_search(simulator, target, lo, hi, seed):
    """The binary search with every probe a full run."""
    if simulator.run(hi, seed=seed).drop_probability <= target:
        return hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if simulator.run(mid, seed=seed).drop_probability <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _exact_target(simulator, n_users, seed, mode):
    """A target on a boundary the probe can meet: the run's own
    ``dropped / sessions``, one drop below it, or the running ratio
    after the first block."""
    result = simulator.run(n_users, seed=seed)
    if mode == "final":
        return result.dropped / result.sessions
    if mode == "one_below":
        return max(result.dropped - 1, 0) / result.sessions
    first = next(chained_blocks(
        *draw(simulator.service_times, n_users, simulator.config, seed),
        simulator.config.n_channels))
    return int(first.sum()) / result.sessions


# 600 s at up to 500 users is up to ~12,000 arrivals: three 4096 blocks.
@settings(max_examples=40, deadline=None)
@given(pool=st.lists(st.floats(min_value=0.1, max_value=30.0),
                     min_size=1, max_size=8),
       n_channels=st.integers(min_value=1, max_value=40),
       n_users=st.integers(min_value=1, max_value=500),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       mode=st.sampled_from(["free", "final", "one_below", "first_block"]),
       free_target=st.floats(min_value=0.0, max_value=0.999))
@example(pool=[12.0], n_channels=20, n_users=500, seed=7, mode="final",
         free_target=0.0)
@example(pool=[12.0], n_channels=20, n_users=500, seed=7,
         mode="first_block", free_target=0.0)
@example(pool=[12.0], n_channels=20, n_users=500, seed=7,
         mode="one_below", free_target=0.0)
@example(pool=[0.5, 2.0], n_channels=40, n_users=500, seed=3,
         mode="free", free_target=0.0)
def test_decision_equals_full_run(pool, n_channels, n_users, seed, mode,
                                  free_target):
    simulator = CapacitySimulator(
        pool, CapacityConfig(n_channels=n_channels, horizon=600.0))
    result = simulator.run(n_users, seed=seed)
    if mode == "free" or result.sessions == 0:
        target = free_target
    else:
        target = _exact_target(simulator, n_users, seed, mode)
    assert (simulator.exceeds_drop_target(n_users, target, seed=seed)
            == (result.drop_probability > target))


def test_saturated_probes_stop_early(monkeypatch):
    """A search whose ``hi`` probe is saturated resolves fewer blocks
    than its probes' streams hold, and still finds the full-run answer."""
    simulator = CapacitySimulator(
        [1.0, 2.0, 3.0], CapacityConfig(n_channels=10, horizon=300.0))
    expected = _full_run_search(simulator, 0.02, 10, 5000, seed=11)
    assert simulator.run(5000, seed=11).drop_probability > 0.5

    stream_blocks = []
    source = simulator.source

    def counted_source(n_users, seed=None):
        blocks = source(n_users, seed)
        stream_blocks.append(
            -(-blocks.n_sessions // blocks.block_arrivals))
        return blocks

    resolved = []
    resolve_block = capacity_simulator.resolve_drops_block

    def counted_resolve(*args, **kwargs):
        resolved.append(1)
        return resolve_block(*args, **kwargs)

    monkeypatch.setattr(simulator, "source", counted_source)
    monkeypatch.setattr(capacity_simulator, "resolve_drops_block",
                        counted_resolve)
    assert capacity_at_drop_target(simulator, 0.02, seed=11) == expected
    assert stream_blocks[0] >= 10  # the hi probe spans many blocks
    assert len(resolved) < sum(stream_blocks)


def test_finite_source_search_matches_full_runs():
    finite = FiniteSourceCapacitySimulator(
        [4.0, 9.0, 15.0], CapacityConfig(n_channels=30, horizon=600.0))
    expected = _full_run_search(finite, 0.05, 10, 400, seed=5)
    assert 10 < expected < 400
    assert capacity_at_drop_target(finite, 0.05, lo=10, hi=400,
                                   seed=5) == expected


@pytest.mark.parametrize("lo, hi", [(400, 100), (0, 100), (-5, 10)])
def test_search_rejects_bad_bounds(lo, hi):
    simulator = CapacitySimulator([10.0], CapacityConfig(horizon=600.0))
    with pytest.raises(ValueError, match="lo"):
        capacity_at_drop_target(simulator, 0.02, lo=lo, hi=hi, seed=1)
