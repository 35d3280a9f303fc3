"""Kernel stats records, the process-wide collector and its windows."""

import sys
import threading

import numpy as np
import pytest

from repro.runtime.observability import (
    KERNEL_STATS,
    KernelStatsCollector,
    SimRunStats,
    collecting,
)
from repro.sim.kernel import Simulator


def test_merged_sums_flows_and_maxes_peak():
    a = SimRunStats(events_processed=2, cancellations=1,
                    peak_queue_depth=5, sim_time=10.0, wall_time=0.1)
    b = SimRunStats(events_processed=3, cancellations=0,
                    peak_queue_depth=7, sim_time=5.0, wall_time=0.4)
    merged = a.merged(b)
    assert merged.events_processed == 5
    assert merged.cancellations == 1
    assert merged.peak_queue_depth == 7
    assert merged.sim_time == 15.0
    assert merged.wall_time == pytest.approx(0.5)


def test_sim_time_ratio():
    stats = SimRunStats(sim_time=100.0, wall_time=0.5)
    assert stats.sim_time_ratio == pytest.approx(200.0)
    assert SimRunStats().sim_time_ratio == 0.0


def test_to_dict_round_numbers():
    keys = set(SimRunStats().to_dict())
    assert keys == {"events_processed", "cancellations",
                    "peak_queue_depth", "sim_time", "wall_time",
                    "sim_time_ratio", "faults_injected",
                    "transfer_retries", "work_units",
                    "stream_blocks", "stream_spills",
                    "stream_shard_bytes", "stream_peak_carried_bytes",
                    "sched_units", "sched_replay_blocks", "sched_steals",
                    "serve_requests", "serve_batches", "serve_coalesced"}


def test_from_dict_inverts_to_dict():
    stats = SimRunStats(events_processed=9, sim_time=2.5, sched_steals=2,
                        serve_batches=4, stream_peak_carried_bytes=64)
    row = dict(stats.to_dict(), task_id="fig01", report="text")
    assert SimRunStats.from_dict(row) == stats
    assert SimRunStats.from_dict({}) == SimRunStats()


def test_add_folds_counters_without_a_simulator():
    collector = KernelStatsCollector()
    collector.add(faults_injected=3, transfer_retries=2)
    collector.add(faults_injected=1, sched_steals=1)
    snapshot = collector.snapshot()
    assert snapshot.faults_injected == 4
    assert snapshot.transfer_retries == 2
    assert snapshot.sched_steals == 1
    assert snapshot.events_processed == 0


def test_collector_sums_flows_and_maxes_peaks():
    collector = KernelStatsCollector()
    collector.add(events_processed=1, sim_time=1.0, peak_queue_depth=6,
                  stream_peak_carried_bytes=100)
    collector.add(events_processed=4, sim_time=3.0, peak_queue_depth=2,
                  stream_peak_carried_bytes=300)
    snapshot = collector.snapshot()
    assert snapshot.events_processed == 5
    assert snapshot.sim_time == 4.0
    assert snapshot.peak_queue_depth == 6
    assert snapshot.stream_peak_carried_bytes == 300


def test_add_rejects_an_unknown_counter():
    with pytest.raises(KeyError):
        KERNEL_STATS.add(no_such_counter=1)
    with pytest.raises(KeyError):
        KernelStatsCollector().add(stream_merges=1)


def test_add_coerces_numpy_scalars_to_the_field_type():
    collector = KernelStatsCollector()
    collector.add(work_units=np.int64(7), sim_time=np.float32(0.5))
    snapshot = collector.snapshot()
    assert type(snapshot.work_units) is int
    assert type(snapshot.sim_time) is float
    assert snapshot.to_dict()["work_units"] == 7


def test_simulator_reports_into_global_collector():
    before = KERNEL_STATS.snapshot()
    with collecting() as collector:
        sim = Simulator()
        for delay in (1.0, 2.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        other = Simulator()
        other.schedule(5.0, lambda: None)
        other.run()
    snapshot = collector.snapshot()
    assert collector is not KERNEL_STATS
    assert snapshot.events_processed == 3
    assert snapshot.sim_time == 7.0
    assert snapshot.wall_time > 0.0
    after = KERNEL_STATS.snapshot()
    assert after.events_processed - before.events_processed == 3
    assert after.sim_time - before.sim_time == pytest.approx(7.0)


def _run_events(n):
    sim = Simulator()
    for delay in range(1, n + 1):
        sim.schedule(float(delay), lambda: None)
    sim.run()


def test_nested_windows_do_not_clobber_each_other():
    with collecting() as outer:
        _run_events(2)
        with collecting() as inner:
            _run_events(3)
        _run_events(5)
    _run_events(7)  # after both windows closed
    assert outer.snapshot().events_processed == 10
    assert inner.snapshot().events_processed == 3


def test_overlapping_windows_each_see_their_own_span():
    first_cm, second_cm = collecting(), collecting()
    first = first_cm.__enter__()
    KERNEL_STATS.add(work_units=1)
    second = second_cm.__enter__()
    KERNEL_STATS.add(work_units=10)
    first_cm.__exit__(None, None, None)
    KERNEL_STATS.add(work_units=100)
    second_cm.__exit__(None, None, None)
    assert first.snapshot().work_units == 11
    assert second.snapshot().work_units == 110


def test_window_sees_every_count_from_other_threads():
    threads, adds = 8, 2000

    def count():
        for _ in range(adds):
            KERNEL_STATS.add(serve_requests=1, serve_coalesced=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = KERNEL_STATS.snapshot()
        with collecting() as window:
            workers = [threading.Thread(target=count)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        after = KERNEL_STATS.snapshot()
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    total = threads * adds
    assert window.snapshot().serve_requests == total
    assert window.snapshot().serve_coalesced == 2 * total
    assert after.serve_requests - before.serve_requests == total
