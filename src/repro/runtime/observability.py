"""Kernel observability: one counter list and a process-wide collector.

The field list of :class:`SimRunStats` is the only place that names a
counter; merging, dict export, the collector and every report derive
from it.  Instrumented code counts with ``KERNEL_STATS.add(name=n)`` —
``Simulator.run`` on exit, the GBRT fit, the streamed sweep, the
scheduler and the serving layer — one call per batch of work, never per
element.  Harnesses that want to attribute that work to a unit of their
own — one experiment in the parallel runner, one benchmark — open a
:func:`collecting` window around it: the window sees every increment
the process makes while it is open, and windows nest and overlap
without disturbing each other or the process total.

This module deliberately imports nothing from the rest of the library so
the kernel can depend on it without creating an import cycle.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Mapping


@dataclass(frozen=True)
class SimRunStats:
    """Counters from one ``Simulator.run`` call (or one lifetime)."""

    #: Callbacks executed.
    events_processed: int = 0
    #: Events cancelled via ``Simulator.cancel``.
    cancellations: int = 0
    #: Largest number of live events queued at once.
    peak_queue_depth: int = 0
    #: Simulated seconds the clock advanced.
    sim_time: float = 0.0
    #: Real seconds spent inside the event loop.
    wall_time: float = 0.0
    #: Impairments injected by :mod:`repro.faults` (losses, timeouts,
    #: RIL drops/delays, promotion spikes, dormancy failures).
    faults_injected: int = 0
    #: Transfer retries issued in response to impairments.
    transfer_retries: int = 0
    #: Domain work units performed outside the event loop: samples
    #: scanned by GBRT split search, rows predicted, trace records
    #: generated, fleet array cells advanced.  Gives benchmarks whose
    #: cost is dominated by non-kernel work (model fitting, batched
    #: accounting) a non-zero denominator in the regression gate.
    work_units: int = 0
    #: Blocks processed by the streamed sweep (repro.stream).
    stream_blocks: int = 0
    #: Shards written by ``ShardStore.put`` (sched units and points).
    stream_spills: int = 0
    #: Bytes written to shard files.
    stream_shard_bytes: int = 0
    #: Largest carried state (drop carry + aggregate) between any two
    #: blocks, in bytes — the streaming memory claim, measured.
    stream_peak_carried_bytes: int = 0
    #: Work units (block ranges) executed by the distributed scheduler.
    sched_units: int = 0
    #: Blocks re-resolved after a steal: the blocks of units this
    #: worker stole from a stale claim (0 on a clean run).
    sched_replay_blocks: int = 0
    #: Stale claims stolen from crashed (or paused) workers.
    sched_steals: int = 0
    #: Requests answered by the serving layer (repro.serve).
    serve_requests: int = 0
    #: Micro-batches the serving layer executed (each one fleet call).
    serve_batches: int = 0
    #: Requests that rode another request's computation — duplicates
    #: coalesced by the micro-batcher within one window.
    serve_coalesced: int = 0

    @property
    def sim_time_ratio(self) -> float:
        """Simulated seconds per real second (speed-up factor).

        The headline "runs as fast as the hardware allows" metric: a
        ratio of 1000 means one wall-clock second simulates 1000 seconds
        of device time.  Zero wall time (nothing ran) reports 0.
        """
        if self.wall_time <= 0.0:
            return 0.0
        return self.sim_time / self.wall_time

    def merged(self, other: "SimRunStats") -> "SimRunStats":
        """Combine two records: sums for flows, max for the peaks."""
        total = KernelStatsCollector()
        total.add(**vars(self))
        total.add(**vars(other))
        return total.snapshot()

    def to_dict(self) -> Dict[str, float]:
        """Flat dict for JSON/CSV report rows (plus ``sim_time_ratio``)."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["sim_time_ratio"] = self.sim_time_ratio
        return row

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimRunStats":
        """Inverse of :meth:`to_dict`; other keys are ignored and
        missing counters read as zero."""
        return cls(**{name: kind(payload.get(name, 0))
                      for name, kind in _KINDS.items()})


#: Counters merged by maximum rather than by sum.
PEAK_COUNTERS = frozenset({"peak_queue_depth", "stream_peak_carried_bytes"})

#: Counter name -> its Python type, so NumPy scalars never reach a report.
_KINDS = {f.name: type(f.default) for f in fields(SimRunStats)}


#: One lock for the process total and every open window: ``add`` folds
#: into all of them in one round trip.
_LOCK = threading.Lock()


class KernelStatsCollector:
    """A running total of :class:`SimRunStats` counters.

    Thread-safe: the serving batcher and the scheduler count from their
    own threads.  :data:`KERNEL_STATS` is the process total; the
    collectors :func:`collecting` yields are windows fed by it.  In the
    process-pool runner each worker process has its own total, which
    the parent folds back in with :meth:`add`.
    """

    def __init__(self) -> None:
        self._totals = {name: kind() for name, kind in _KINDS.items()}
        #: This collector plus the windows currently open on it.
        self._targets: List[KernelStatsCollector] = [self]

    def add(self, **counts: float) -> None:
        """Fold counters in by name; an unknown name raises ``KeyError``.

        One lock round trip per call, so the hot paths call it once per
        batch of work (a whole ``fit``, one block, one ``run``).
        """
        values = [(name, _KINDS[name](value))
                  for name, value in counts.items()]
        with _LOCK:
            for target in self._targets:
                totals = target._totals
                for name, value in values:
                    if name not in PEAK_COUNTERS:
                        totals[name] += value
                    elif value > totals[name]:
                        totals[name] = value

    def snapshot(self) -> SimRunStats:
        """The counters folded in so far."""
        with _LOCK:
            return SimRunStats(**self._totals)


#: Process-wide collector every instrumented call site reports into.
KERNEL_STATS = KernelStatsCollector()


@contextmanager
def collecting() -> Iterator[KernelStatsCollector]:
    """Open a window on :data:`KERNEL_STATS` for the ``with`` block.

    The window starts at zero and sees every increment the process
    makes until the block exits; it stays readable afterwards::

        with collecting() as stats:
            result = experiment.run()
        kernel_metrics = stats.snapshot()
    """
    window = KernelStatsCollector()
    with _LOCK:
        KERNEL_STATS._targets.append(window)
    try:
        yield window
    finally:
        with _LOCK:
            KERNEL_STATS._targets.remove(window)
