"""Micro-batching across concurrent request threads.

The fleet engines are batch-native: one ``evaluate_setups`` call over N
trials costs far less than N calls over one trial each (one unit-grid
pass, one set of array allocations).  A serving process receives
those N trials as N *concurrent HTTP requests*, so the batcher's job is
to re-assemble them: the first request thread to arrive becomes the
round's **leader**, waits a small collection window for peers, then
executes everyone's work as one batch and distributes the results.

Duplicate requests (same canonical key) inside one window coalesce onto
a single slot — one computation fans out to every waiter, which is what
makes hot what-if scenarios nearly free under load.

``window=0`` disables batching entirely: every caller computes its own
single-item batch inline.  That degenerate mode is the honest
"unbatched" baseline that ``tests/serve/test_batching_latency.py``
holds the batched p99 against: same code path, no coalescing, no
shared fleet call.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: Default collection window, seconds.  Long enough that a burst of
#: closed-loop clients lands in one round, short enough to be invisible
#: next to a cold page-load (hundreds of ms).
DEFAULT_BATCH_WINDOW = 0.005

#: Default cap on distinct keys per round; a full round executes early.
DEFAULT_MAX_BATCH = 64


class BatcherClosed(RuntimeError):
    """submit() after close(): the server is draining for shutdown."""


class _Entry:
    __slots__ = ("key", "item", "event", "result", "error", "waiters")

    def __init__(self, key: Hashable, item):
        self.key = key
        self.item = item
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None
        #: Extra callers riding this slot (duplicates coalesced).
        self.waiters = 0


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into windowed batches.

    ``compute`` receives the round's unique items (in arrival order)
    and must return one result per item, same order.  If it raises, the
    whole round observes the exception — deterministic computations
    will fail identically per-item anyway, and a transient fault is the
    caller's to retry.

    ``on_round(n_items, n_coalesced)`` fires after each executed round
    (and after each inline single-item computation when ``window=0``),
    so the owner can fold batching effectiveness into its metrics.
    """

    def __init__(self, compute: Callable[[List[object]], Sequence[object]],
                 window: float = DEFAULT_BATCH_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 on_round: Optional[Callable[[int, int], None]] = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._compute = compute
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._on_round = on_round
        self._cond = threading.Condition()
        self._pending: Dict[Hashable, _Entry] = {}
        self._leader_active = False
        self._closed = False

    # -- hot path --------------------------------------------------------

    def submit(self, key: Hashable, item):
        """Compute ``item`` (or join an identical in-flight one)."""
        if self.window <= 0:
            return self._run_inline(key, item)
        with self._cond:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            entry = self._pending.get(key)
            lead = False
            if entry is not None:
                entry.waiters += 1
            else:
                entry = _Entry(key, item)
                self._pending[key] = entry
                if not self._leader_active:
                    self._leader_active = True
                    lead = True
                elif len(self._pending) >= self.max_batch:
                    self._cond.notify_all()  # wake the leader early
        if lead:
            self._lead_round()
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _run_inline(self, key: Hashable, item):
        with self._cond:
            if self._closed:
                raise BatcherClosed("batcher is closed")
        results = self._compute([item])
        if len(results) != 1:
            raise RuntimeError(
                f"batch compute returned {len(results)} results "
                "for 1 item")
        if self._on_round is not None:
            self._on_round(1, 0)
        return results[0]

    def _lead_round(self) -> None:
        deadline = time.monotonic() + self.window
        with self._cond:
            while (len(self._pending) < self.max_batch
                   and not self._closed):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            batch = list(self._pending.values())
            self._pending = {}
            self._leader_active = False
            self._cond.notify_all()
        coalesced = sum(entry.waiters for entry in batch)
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
            for entry in batch:
                entry.event.set()
            if self._on_round is not None:
                self._on_round(len(batch), coalesced)

    # -- lifecycle -------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Refuse new work, then wait for in-flight rounds to drain.

        Entries already registered keep their promise: the active
        leader still executes them (its collection wait is cut short by
        the notify), so a graceful shutdown answers everything it
        accepted.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            while self._pending or self._leader_active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.05))

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed
