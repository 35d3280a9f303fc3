"""Event objects and the priority queue that orders them.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a
monotonically increasing counter assigned at schedule time.  This gives the
kernel two properties the substrates rely on:

- **determinism**: two runs with the same inputs produce the same event
  order, independent of hash seeds or insertion patterns;
- **FIFO ties**: events scheduled for the same instant fire in the order
  they were scheduled, which matches the intuition of sequential code.

Cancellation is lazy: a cancelled event stays in the heap and is skipped
when popped, which keeps :meth:`Event.cancel` O(1).  Pure laziness,
however, leaks: a long session that keeps re-arming timers (the RRC tail
timers are cancelled and rescheduled on every transmission) accumulates
cancelled entries and the heap grows without bound.  The queue therefore
compacts — rebuilds the heap from only the live events — whenever
cancelled entries outnumber live ones.  Each compaction is O(n) but
removes at least half the heap, so the cost amortises to O(1) per
cancellation and the heap never holds more than ``2 * live + O(1)``
entries.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

#: Heaps at or below this size are never compacted: the O(n) rebuild buys
#: nothing measurable and skipping it keeps micro-simulations allocation
#: free.
_COMPACT_MIN_SIZE = 16


class Event:
    """A scheduled callback.

    Instances are created by :meth:`EventQueue.push` /
    :meth:`repro.sim.kernel.Simulator.schedule`; user code only holds them
    to query :attr:`time` or to :meth:`cancel` them.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the kernel skips it when its time comes."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, #{self.sequence}, {name}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` objects keyed by ``(time, sequence)``."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0
        #: Cancelled events still physically present in the heap.
        self._stale = 0

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Insert a new event and return it (for later cancellation)."""
        event = Event(time, next(self._counter), callback, args)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def push_many(self, items: "list[tuple[float, Callable[..., Any], tuple]]"
                  ) -> "list[Event]":
        """Insert a batch of ``(time, callback, args)`` entries.

        Sequence numbers are assigned in iteration order, so the batch is
        indistinguishable from the equivalent sequence of :meth:`push`
        calls — same events, same FIFO ties, same pop order.
        """
        heappush = heapq.heappush
        heap = self._heap
        counter = self._counter
        events = []
        for time, callback, args in items:
            event = Event(time, next(counter), callback, args)
            heappush(heap, event)
            events.append(event)
        self._live += len(events)
        return events

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events are discarded silently.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._stale -= 1
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._stale -= 1
        if not self._heap:
            return None
        return self._heap[0].time

    def note_cancelled(self) -> None:
        """Bookkeeping hook: an event in the heap was cancelled externally."""
        self._live -= 1
        self._stale += 1
        if (self._stale > len(self._heap) // 2
                and len(self._heap) > _COMPACT_MIN_SIZE):
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap from only the live events.

        Heapify over the surviving ``(time, sequence)`` keys preserves
        pop order exactly — sequence numbers are assigned at push time
        and never reused — so compaction is invisible to callers.

        The rebuild mutates the heap list *in place* (slice assignment,
        not rebinding): the kernel's drain loop holds a local reference
        to this list across callbacks, and a callback that cancels enough
        events to trigger compaction must not strand that reference on a
        dead copy.
        """
        self._heap[:] = [event for event in self._heap
                         if not event.cancelled]
        heapq.heapify(self._heap)
        self._stale = 0

    def __len__(self) -> int:
        return max(self._live, 0)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
