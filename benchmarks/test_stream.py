"""Streaming sweep bench: in-memory vs block-pipeline at 10x fig11
scale.

Both benchmarks run the identical five-point load-factor sweep over an
M/G/2000 system through :func:`repro.stream.sweep.run_stream_sweep` —
once materialising whole arrival arrays, once streaming 65536-arrival
blocks through the carried drop frontier.  The points must agree
exactly; the committed ``BENCH_3.json`` (see
:mod:`repro.stream.bench`) records the wall-clock and peak-RSS pair
the trade-off buys.
"""

import numpy as np

from repro.capacity.simulator import CapacityConfig
from repro.stream.sweep import (default_user_counts, lognormal_pool,
                                run_stream_sweep)

SCALE = 10
N_CHANNELS = 200 * SCALE
HORIZON = 900.0


def _setup():
    pool = lognormal_pool()
    config = CapacityConfig(n_channels=N_CHANNELS, horizon=HORIZON,
                            seed=7)
    counts = default_user_counts(config, float(pool.mean()))
    return pool, config, counts


def _sweep(pool, config, counts, stream):
    return run_stream_sweep(pool, counts, config, seed=7,
                            stream=stream)


def test_stream_sweep_10x_in_memory(benchmark, record_report):
    pool, config, counts = _setup()
    result = benchmark.pedantic(_sweep,
                                args=(pool, config, counts, False),
                                rounds=3, iterations=1)
    assert sum(point.dropped for point in result.points) > 0
    record_report(result)


def test_stream_sweep_10x_streamed(benchmark, record_report,
                                  kernel_window):
    pool, config, counts = _setup()
    result = benchmark.pedantic(_sweep,
                                args=(pool, config, counts, True),
                                rounds=3, iterations=1)
    assert sum(point.dropped for point in result.points) > 0
    snapshot = kernel_window.snapshot()
    assert snapshot.stream_blocks > 0
    assert snapshot.stream_peak_carried_bytes > 0
    # apples-to-apples guard: the streamed points match the in-memory
    # path exactly (the golden tests prove this at full strength)
    assert result.points \
        == _sweep(pool, config, counts, False).points
    record_report(result)
