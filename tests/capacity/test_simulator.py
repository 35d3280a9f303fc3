"""M/G/N/N capacity simulator, cross-checked against Erlang-B."""

import numpy as np
import pytest

from repro.capacity.erlang import erlang_b, offered_load
from repro.capacity.simulator import (
    CapacityConfig,
    CapacitySimulator,
    capacity_at_drop_target,
)
from repro.stream.sweep import sweep_point


def make_simulator(service=10.0, channels=50, horizon=3600.0):
    return CapacitySimulator(
        [service], CapacityConfig(n_channels=channels, horizon=horizon,
                                  seed=1))


def test_no_drops_under_light_load():
    simulator = make_simulator(service=1.0, channels=50)
    result = simulator.run(n_users=10)
    assert result.dropped == 0
    assert result.drop_probability == 0.0


def test_heavy_load_drops_sessions():
    simulator = make_simulator(service=60.0, channels=10)
    result = simulator.run(n_users=200)
    assert result.drop_probability > 0.5


def test_drop_probability_monotone_in_users():
    simulator = make_simulator(service=20.0, channels=40)
    probabilities = [simulator.run(n).drop_probability
                     for n in (20, 60, 120, 240)]
    assert probabilities == sorted(probabilities)


def test_runs_are_seeded():
    simulator = make_simulator()
    a = simulator.run(100, seed=9)
    b = simulator.run(100, seed=9)
    assert (a.sessions, a.dropped) == (b.sessions, b.dropped)


def test_simulation_matches_erlang_b():
    """Property (insensitivity): with deterministic service times the
    simulated loss probability matches the analytic Erlang-B value."""
    channels, users, service = 30, 90, 12.0
    simulator = CapacitySimulator(
        [service], CapacityConfig(n_channels=channels, horizon=40_000.0,
                                  seed=3))
    load = offered_load(users, 25.0, service)
    analytic = erlang_b(channels, load)
    simulated = simulator.run(users).drop_probability
    assert simulated == pytest.approx(analytic, abs=0.02)


def test_empirical_service_distribution_sampled():
    simulator = CapacitySimulator([5.0, 15.0],
                                  CapacityConfig(horizon=1000.0))
    assert simulator.mean_service_time == pytest.approx(10.0)


def test_shorter_service_supports_more_users():
    """The Fig. 11 mechanism."""
    fast = make_simulator(service=10.0, channels=50, horizon=7200.0)
    slow = make_simulator(service=14.0, channels=50, horizon=7200.0)
    fast_capacity = capacity_at_drop_target(fast, 0.02, seed=2)
    slow_capacity = capacity_at_drop_target(slow, 0.02, seed=2)
    assert fast_capacity > slow_capacity


def test_capacity_binary_search_is_tight():
    simulator = make_simulator(service=10.0, channels=50, horizon=7200.0)
    capacity = capacity_at_drop_target(simulator, 0.02, seed=2)
    assert simulator.run(capacity, seed=2).drop_probability <= 0.02
    assert simulator.run(capacity + 25, seed=2).drop_probability > 0.02


def _sweep(simulator, user_counts, seed):
    """One run per user count, on the sweep's per-point seeds."""
    seeds = simulator.sweep_seeds(len(user_counts), seed=seed)
    return [simulator.run(n, seed=s) for n, s in zip(user_counts, seeds)]


def test_sweep_is_deterministic():
    simulator = make_simulator(service=20.0, channels=40)
    a = _sweep(simulator, [50, 100, 200], seed=11)
    b = _sweep(simulator, [50, 100, 200], seed=11)
    assert [(r.sessions, r.dropped) for r in a] \
        == [(r.sessions, r.dropped) for r in b]


def test_sweep_points_use_independent_seeds():
    """Each sweep point must draw from its own stream: with one shared
    seed, every point reuses the same arrival luck and the whole curve
    is biased up or down together."""
    simulator = make_simulator(service=20.0, channels=40)
    n = 120
    independent = _sweep(simulator, [n, n, n], seed=11)
    # Independent streams: same user count, different session draws.
    sessions = {r.sessions for r in independent}
    assert len(sessions) > 1
    # And none of the per-point seeds is the root seed itself.
    assert all(s != 11 for s in simulator.sweep_seeds(3, seed=11))


def test_validation():
    with pytest.raises(ValueError):
        CapacitySimulator([])
    with pytest.raises(ValueError):
        CapacitySimulator([0.0])
    with pytest.raises(ValueError):
        CapacityConfig(n_channels=0)
    # 2.5 channels used to pass, and the block kernel then dropped more
    # sessions than the heap loop; a bool is no channel count either.
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="integer"):
            CapacityConfig(n_channels=bad)
    assert CapacityConfig(n_channels=np.int64(3)).n_channels == 3
    simulator = make_simulator()
    with pytest.raises(ValueError):
        simulator.run(0)
    with pytest.raises(ValueError):
        capacity_at_drop_target(simulator, 0.0)


@pytest.mark.parametrize("bad", [300.9, 300.0, True])
def test_non_integral_or_bool_user_counts_are_rejected(bad):
    """``n_users`` used to be truncated by ``int()`` while the arrival
    rate came from the raw value: ``run(300.9)`` simulated 300.9 users,
    ``sweep_point`` then reported ``n_users=300`` beside 300.9's
    sessions, and ``run(True)`` simulated one user.  The source rejects
    them once, for every capacity run."""
    simulator = make_simulator()
    with pytest.raises(ValueError, match="n_users must be an integer"):
        simulator.run(bad)
    with pytest.raises(ValueError, match="n_users must be an integer"):
        sweep_point(simulator, bad, 5)
    with pytest.raises(ValueError, match="n_users must be an integer"):
        simulator.exceeds_drop_target(bad, 0.02)


def test_numpy_integer_user_counts_run_like_ints():
    simulator = make_simulator()
    assert simulator.run(np.int64(30)) == simulator.run(30)
    assert sweep_point(simulator, np.int32(30), 5) \
        == sweep_point(simulator, 30, 5)
