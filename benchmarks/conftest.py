"""Benchmark harness conventions.

Each file regenerates one of the paper's tables or figures: the
benchmark times the experiment run, and the experiment's report — the
same rows/series the paper plots — is echoed so ``pytest benchmarks/
--benchmark-only -s`` doubles as the reproduction record.

Alongside every report the harness prints the kernel runtime metrics
accumulated during the benchmark — events processed, cancellations,
peak queue depth, and the sim-time/real-time ratio — read from a
:func:`repro.runtime.observability.collecting` window opened around
the benchmark.  The window's counters fill the benchmark's
``extra_info``; a key the benchmark set itself (``test_serve.py``'s
``work_units``, say) wins over the kernel's.
"""

from __future__ import annotations

import pytest

from repro.runtime.observability import collecting


@pytest.fixture(autouse=True)
def kernel_window(benchmark):
    """Give each benchmark its own kernel-stats window and publish its
    counters into the benchmark's ``extra_info`` so the
    ``BENCH_<n>.json`` trajectory artifacts (see
    :mod:`repro.runtime.profiling`) carry events/sec and sim/real per
    benchmark.  Keys the benchmark already set are left alone."""
    with collecting() as window:
        yield window
    for key, value in window.snapshot().to_dict().items():
        benchmark.extra_info.setdefault(key, value)


@pytest.fixture
def record_report(request, kernel_window):
    """Print an experiment's report (plus kernel metrics) under the
    benchmark's name."""

    def _record(result) -> None:
        text = result.report()
        stats = kernel_window.snapshot()
        lines = [f"\n[{request.node.name}]", text]
        if stats.events_processed:
            lines.append(
                f"[kernel] {stats.events_processed} events, "
                f"{stats.cancellations} cancellations, "
                f"peak queue depth {stats.peak_queue_depth}, "
                f"sim/real {stats.sim_time_ratio:.0f}x "
                f"({stats.sim_time:.1f}s simulated in "
                f"{stats.wall_time:.3f}s)")
        if stats.work_units:
            lines.append(f"[work] {stats.work_units} units")
        print("\n".join(lines) + "\n")

    return _record
