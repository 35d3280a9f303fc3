"""The simulation kernel: a clock plus an event loop.

The kernel is deliberately minimal — substrates are plain Python objects
that hold a reference to the :class:`Simulator` and schedule callbacks on
it.  There is no coroutine machinery; sequential behaviour is expressed by
a callback scheduling its continuation (see :mod:`repro.sim.process` for a
helper that does this for CPU task chains).

Every simulator instruments itself: counters for events processed,
cancellations, and peak queue depth, plus wall-clock accounting inside
:meth:`Simulator.run`.  Completed runs are reported to the process-wide
:data:`repro.runtime.observability.KERNEL_STATS` collector so harnesses
(the parallel experiment runner, the benchmarks) can attribute kernel
work to the experiment that caused it without reaching into substrates.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.runtime.observability import KERNEL_STATS, SimRunStats
from repro.sim.events import Event, EventQueue
from repro.units import require_non_negative

class SimulationError(RuntimeError):
    """Raised when the kernel is used incorrectly."""


class Simulator:
    """A discrete-event simulator with a floating-point clock in seconds."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._start_time = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._events_processed = 0
        self._cancellations = 0
        self._peak_queue_depth = 0
        self._run_peak_depth = 0
        self._wall_time = 0.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be a finite, non-negative number.  NaN and ±inf
        raise :class:`SimulationError`: every comparison with NaN is
        false, so a NaN timestamp would pass the ``< 0`` range check yet
        silently corrupt the heap ordering invariant.
        """
        if not math.isfinite(delay):
            raise SimulationError(
                f"delay must be finite, got {delay!r}")
        require_non_negative("delay", delay)
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        ``time`` must be finite (NaN compares false against the clock
        and would slip past the past-time check below) and not earlier
        than the current clock.
        """
        if not math.isfinite(time):
            raise SimulationError(
                f"schedule_at time must be finite, got {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, clock is at {self.now:.6f}")
        return self._push(time, callback, args)

    def schedule_many(self,
                      requests: Iterable[Tuple[float, Callable[..., Any],
                                               tuple]]) -> List[Event]:
        """Schedule a batch of ``(delay, callback, args)`` requests.

        Equivalent to calling :meth:`schedule` once per request, in
        order — same events, same sequence numbers, same FIFO ties —
        but validates up front and pushes through the queue's bulk
        path, which matters for callers that enqueue back-to-back
        transfers (see :meth:`repro.network.link.Link.fetch_many`).
        """
        now = self.now
        items: List[Tuple[float, Callable[..., Any], tuple]] = []
        for delay, callback, args in requests:
            if not math.isfinite(delay):
                raise SimulationError(
                    f"delay must be finite, got {delay!r}")
            require_non_negative("delay", delay)
            items.append((now + delay, callback, args))
        events = self._queue.push_many(items)
        depth = len(self._queue)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if depth > self._run_peak_depth:
            self._run_peak_depth = depth
        return events

    def _push(self, time: float, callback: Callable[..., Any],
              args: tuple) -> Event:
        event = self._queue.push(time, callback, args)
        depth = len(self._queue)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if depth > self._run_peak_depth:
            self._run_peak_depth = depth
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is a no-op)."""
        if event is not None and not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()
            self._cancellations += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest event.  Returns ``False`` when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains or the horizon is reached.

        ``until`` is an absolute simulation time; events scheduled beyond
        it remain queued and the clock is advanced exactly to ``until``.
        ``max_events`` bounds the number of callbacks (a runaway guard for
        tests).

        The event loop is inlined over the queue's heap (one pop per
        live event, no per-event ``peek_time``/``step`` indirection);
        ``tests/oracles/kernel.py`` keeps the peek/step loop it must
        match.
        """
        if self._running:
            raise SimulationError("run() re-entered; the kernel is not "
                                  "reentrant")
        self._running = True
        run_started_at = self.now
        events_before = self._events_processed
        cancellations_before = self._cancellations
        # Per-run peak starts at the depth already queued when the run
        # begins; _push / schedule_many raise it as callbacks schedule.
        self._run_peak_depth = len(self._queue)
        wall_start = _time.perf_counter()
        try:
            self._drain(until, max_events)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            wall_time = _time.perf_counter() - wall_start
            self._wall_time += wall_time
            KERNEL_STATS.add(
                events_processed=self._events_processed - events_before,
                cancellations=self._cancellations - cancellations_before,
                peak_queue_depth=self._run_peak_depth,
                sim_time=self.now - run_started_at,
                wall_time=wall_time)

    def _drain(self, until: Optional[float],
                  max_events: Optional[int]) -> None:
        """Drain loop with the queue internals bound locally.

        Safe against everything callbacks may do: pushes go through
        ``heapq.heappush`` on the same list object, and compaction
        (triggered by cancellations) rebuilds that list in place, so the
        local ``heap`` binding never goes stale.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        processed = 0
        try:
            while heap:
                event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    queue._stale -= 1
                    continue
                event_time = event.time
                if until is not None and event_time > until:
                    break
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}")
                heappop(heap)
                queue._live -= 1
                if event_time < self.now:
                    raise SimulationError(
                        "event queue went backwards in time")
                self.now = event_time
                processed += 1
                event.callback(*event.args)
        finally:
            self._events_processed += processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def cancellations(self) -> int:
        """Total number of events cancelled via :meth:`cancel`."""
        return self._cancellations

    @property
    def peak_queue_depth(self) -> int:
        """Largest number of live events ever queued at once."""
        return self._peak_queue_depth

    @property
    def wall_time(self) -> float:
        """Cumulative real seconds spent inside :meth:`run`."""
        return self._wall_time

    def stats(self) -> SimRunStats:
        """Lifetime counters for this simulator as one record."""
        return SimRunStats(
            events_processed=self._events_processed,
            cancellations=self._cancellations,
            peak_queue_depth=self._peak_queue_depth,
            sim_time=self.now - self._start_time,
            wall_time=self._wall_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Simulator(now={self.now:.6f}, "
                f"pending={self.pending_events})")
