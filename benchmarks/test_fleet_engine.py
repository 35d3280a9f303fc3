"""Fleet engine bench: the batched drop resolver at 10x fig11 scale.

Runs the five-point load-factor sweep (0.8..1.2) over an M/G/2000
system — ten times the paper's N=200 channels, with the user counts
scaled to match — through the batched drop resolver.
"""

import numpy as np

from repro.capacity.simulator import CapacityConfig, CapacitySimulator

#: 10x the paper's channel count; user counts scale with it.
SCALE = 10
N_CHANNELS = 200 * SCALE
HORIZON = 900.0
LOAD_FACTORS = (0.8, 0.9, 1.0, 1.1, 1.2)


def _simulator() -> CapacitySimulator:
    rng = np.random.default_rng(7)
    pool = rng.lognormal(np.log(14.0), 0.5, size=400)
    return CapacitySimulator(
        pool, CapacityConfig(n_channels=N_CHANNELS, horizon=HORIZON,
                             seed=7))


def _user_counts(simulator: CapacitySimulator) -> list:
    per_user = simulator.config.mean_interval / simulator.mean_service_time
    return [int(round(rho * N_CHANNELS * per_user))
            for rho in LOAD_FACTORS]


def _sweep(simulator, counts):
    return [simulator.run(n) for n in counts]


def test_fleet_fig11_sweep_10x(benchmark):
    simulator = _simulator()
    counts = _user_counts(simulator)
    results = benchmark.pedantic(_sweep, args=(simulator, counts),
                                 rounds=3, iterations=1)
    assert sum(result.dropped for result in results) > 0
