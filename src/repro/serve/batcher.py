"""Micro-batching across concurrent request threads, gated on core
occupancy.

The fleet engines are batch-native: one ``evaluate_setups`` call over N
trials costs far less than N calls over one trial each (one unit-grid
pass, one set of array allocations).  A serving process receives those
N trials as N *concurrent HTTP requests*.  Holding a request back to
collect peers only pays when no core could start it now, so the
batcher keys batching on occupancy, never on a clock: it runs at most
``slots`` rounds at once, one per core the process may run on.

- A request that finds a free slot computes at once, as a round of one.
- A request that finds every slot busy joins the pending queue.  The
  thread of the queue's first entry leads the next round: it waits on
  the condition until a slot frees, then takes up to ``max_batch``
  pending items as one round.  The first entry left behind leads the
  round after it.

So a round grows exactly with the backlog that built up while every
core was busy, and a quiet server never waits.

A request whose canonical key matches an entry that is pending or still
computing coalesces onto it: one computation fans out to every waiter
(the ``SingleFlight`` idea applied to rounds).  Entries stay keyed until
their round's results are set, which is what makes hot what-if
scenarios nearly free under load.

``slots=math.inf`` is the unbatched mode on the same path: every
request computes at once as a round of one, and nothing coalesces (each
call is keyed apart), so no request ever waits for a peer.  It is the
honest baseline that ``tests/serve/test_batching_latency.py`` holds the
batched p99 against.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Dict, Hashable, List, Optional, Sequence

#: Default cap on distinct keys per round.
DEFAULT_MAX_BATCH = 64


def core_slots() -> int:
    """Cores this process may run on: the default round concurrency."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BatcherClosed(RuntimeError):
    """submit() after close(): the server is draining for shutdown."""


class _Entry:
    __slots__ = ("key", "item", "event", "result", "error", "waiters",
                 "taken")

    def __init__(self, key: Hashable, item):
        self.key = key
        self.item = item
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None
        #: Extra callers riding this entry (duplicates coalesced).
        self.waiters = 0
        #: Set once a round holds this entry (no longer pending).
        self.taken = False


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into occupancy-gated rounds.

    ``compute`` receives the round's unique items (in arrival order)
    and must return one result per item, same order.  If it raises, the
    whole round observes the exception — deterministic computations
    will fail identically per-item anyway, and a transient fault is the
    caller's to retry.

    ``slots`` bounds the rounds computing at once (default: the cores
    this process may run on; ``math.inf`` never queues and never
    coalesces).
    ``on_round(n_items, n_coalesced)`` fires after each executed round,
    so the owner can fold batching effectiveness into its metrics.
    """

    def __init__(self, compute: Callable[[List[object]], Sequence[object]],
                 slots: Optional[float] = None,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 on_round: Optional[Callable[[int, int], None]] = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        slots = core_slots() if slots is None else slots
        if not slots >= 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self._compute = compute
        self.slots = slots
        self._coalesce = slots != math.inf
        self.max_batch = int(max_batch)
        self._on_round = on_round
        self._cond = threading.Condition()
        #: Every entry that is pending or computing, by key.
        self._entries: Dict[Hashable, _Entry] = {}
        #: Pending entries, in arrival order.
        self._queue: List[_Entry] = []
        self._busy = 0
        self._closed = False

    # -- hot path --------------------------------------------------------

    def submit(self, key: Hashable, item):
        """Compute ``item`` (or join an identical in-flight one)."""
        if not self._coalesce:
            key = object()
        batch = None
        with self._cond:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            entry = self._entries.get(key)
            if entry is not None:
                entry.waiters += 1
            else:
                entry = _Entry(key, item)
                self._entries[key] = entry
                if self._queue or self._busy >= self.slots:
                    self._queue.append(entry)
                    batch = self._await_slot(entry)
                else:
                    self._busy += 1
                    batch = [entry]
        if batch:
            self._run(batch)
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _await_slot(self, entry: _Entry) -> Optional[List[_Entry]]:
        """Hold ``entry`` pending until another leader's round takes it
        (None) or it heads the queue with a slot free: then take the
        round it leads.  Called with the condition held."""
        while not entry.taken:
            if self._queue[0] is entry and self._busy < self.slots:
                batch = self._queue[:self.max_batch]
                del self._queue[:self.max_batch]
                for member in batch:
                    member.taken = True
                self._busy += 1
                self._cond.notify_all()
                return batch
            self._cond.wait()
        return None

    def _run(self, batch: List[_Entry]) -> None:
        try:
            results = self._compute([entry.item for entry in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch compute returned {len(results)} results "
                    f"for {len(batch)} items")
            for entry, result in zip(batch, results):
                entry.result = result
        except BaseException as exc:
            for entry in batch:
                entry.error = exc
        finally:
            with self._cond:
                for entry in batch:
                    del self._entries[entry.key]
                coalesced = sum(entry.waiters for entry in batch)
                self._busy -= 1
                self._cond.notify_all()
            for entry in batch:
                entry.event.set()
            if self._on_round is not None:
                self._on_round(len(batch), coalesced)

    # -- lifecycle -------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Refuse new work, then wait for accepted work to drain.

        Entries already registered keep their promise: a round queued
        behind busy slots still runs when a slot frees, so a graceful
        shutdown answers everything it accepted.
        """
        with self._cond:
            self._closed = True
            self._cond.wait_for(lambda: not self._entries, timeout)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed
