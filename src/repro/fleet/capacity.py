"""Batched Erlang-loss drop resolution via sorted-count sweeps.

The scalar :class:`repro.capacity.simulator.CapacitySimulator` walks a
min-heap of channel release times, one Python iteration per session.
The loss process it computes is a deterministic function of the arrival
and service-time arrays, so the whole run can be resolved with array
sweeps instead.

Work per *arrival* rather than per event: let ``L_i`` be the number of
*live* departures (of sessions not dropped) at or before ``a_i`` — ties
count, because the heap pop uses ``busy[0] <= arrival``.  Given a
candidate set ``C`` of dropped sessions, the post-arrival occupancy
obeys the ceiling-clipped recursion

    O_i = min(O_{i-1} - (L_i - L_{i-1}) + 1, N)

and the substitution ``T_i = O_i + L_i`` turns it into a running
minimum with closed form

    T_i = i + min(1, min_{j<=i}(N + L_j - j))

— one ``minimum.accumulate`` over arrival-indexed arrays.  Arrival
``i`` is dropped iff the occupancy just before it, ``T_{i-1} - L_i``,
has reached ``N``; in integer arithmetic that reduces to comparing the
shifted running minimum against ``N + L_i - i``.  The drop set found
feeds back as the next candidate (a dropped session never releases a
channel) until stable.  ``L`` itself needs no sort: each departure
``d_j = a_j + s_j`` is binned to the first arrival index it precedes
with one ``searchsorted`` against the already-sorted arrivals, and
``bincount`` + ``cumsum`` turn the bins into counts.

Two facts make the iteration exact and well-behaved:

- *Monotone from below*: cancelling more departures raises the
  occupancy everywhere, which can only drop more arrivals, so from
  ``C = ∅`` the candidate climbs a finite lattice to the least fixpoint
  — and any fixpoint equals the sequential heap answer (induction over
  events: the first event where they could differ sees the same
  occupancy).  A corollary: while ``C`` is a *subset* of the true drop
  set, every drop a sweep finds is a true drop.
- *Drops cascade forward only*, so the stream is processed in blocks of
  arrivals: each block's fixpoint runs with all earlier blocks
  finalised, which keeps the number of sweeps proportional to the
  *local* cascade depth instead of the global one.

Dense saturation (binary-search probes far above capacity) can still
cascade heavily inside a block; past a sweep budget the resolver hands
the rest of the stream to the scalar heap loop, so the worst case costs
about one scalar run rather than thousands of sweeps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.runtime.observability import KERNEL_STATS
from repro.sim.kernel import SimulationError

#: Arrivals per block: large enough to amortise the NumPy call overhead
#: of one sweep, small enough that saturated cascades stay local.
_BLOCK_ARRIVALS = 4096
#: Sweeps allowed per block before the scalar fallback takes over.
_MAX_SWEEPS = 96


def _require_valid_stream(arrivals, services,
                          lower: "float | None" = None) -> None:
    """Reject the two verified silent-wrongness inputs up front.

    The kernel's correctness proof leans on two preconditions it never
    used to check.  *Unsorted arrivals* silently produce a wrong drop
    mask (``[5.0, 0.0, 1.0]`` with one channel drops two sessions where
    the sorted stream drops none): the live-count binning assumes the
    query side is ordered.  *NaN/inf sessions* silently vanish — every
    comparison with NaN is False, so a NaN-service session is never
    counted as a departure and never enters the carried frontier, yet
    its arrival is happily marked accepted.  Both checks are one
    vectorised pass, negligible next to the sort the kernel does
    anyway.  ``lower`` (the carried block boundary) guards the
    cross-block ordering contract the same way.
    """
    if arrivals.shape != services.shape:
        raise ValueError(
            f"arrivals and services must have matching shapes, got "
            f"{arrivals.shape} vs {services.shape}")
    if not np.isfinite(arrivals).all() or not np.isfinite(services).all():
        raise SimulationError(
            "arrivals and services must be finite: a NaN/inf session "
            "is silently dropped from the busy frontier while its "
            "arrival is still marked accepted")
    if (arrivals[1:] < arrivals[:-1]).any():
        raise ValueError(
            "arrivals must be non-decreasing (documented contract); "
            "an unsorted stream returns a plausible-looking wrong "
            "drop mask instead of failing")
    if lower is not None and bool(arrivals[0] < lower):
        raise ValueError(
            f"block arrivals start at {float(arrivals[0])!r}, before "
            f"the carried boundary {lower!r}; blocks must continue "
            f"one non-decreasing stream")


def resolve_drops(arrivals: np.ndarray, services: np.ndarray,
                  n_channels: int,
                  block_arrivals: int = _BLOCK_ARRIVALS,
                  max_sweeps: int = _MAX_SWEEPS) -> np.ndarray:
    """Boolean mask of dropped sessions for one capacity run.

    ``arrivals`` must be non-decreasing and ``services`` strictly
    positive (a zero service would free its channel *before* its own
    arrival claims one).  Bit-for-bit equivalent to the scalar heap
    loop::

        while busy and busy[0] <= arrival: heappop(busy)
        if len(busy) >= n_channels: drop
        else: heappush(busy, arrival + service)
    """
    m = int(arrivals.size)
    dropped = np.zeros(m, dtype=bool)
    if m == 0:
        return dropped
    _require_valid_stream(arrivals, services)

    departures = arrivals + services
    # bins[j]: first arrival index at or after d_j — the arrival whose
    # pop would release channel j (d <= a counts, hence side='left').
    # Only the bin *counts* matter, and sorted queries keep the binary
    # searches cache-local, so bin the departures in sorted order (they
    # are nearly sorted already — arrivals are — making the sort cheap).
    bins = np.searchsorted(arrivals, np.sort(departures), side='left')
    # cum_all[i]: departures (live or not) at or before a_i.
    cum_all = np.cumsum(np.bincount(bins, minlength=m + 1))[:m]

    work = 0
    # Carried state: T_{b0-1} = occupancy + L at the previous arrival.
    t_prev = 0
    # Cancelled departures from finalised blocks: a scalar count of
    # those already behind the boundary plus the times of those still
    # ahead of it (kept unsorted; each block bins them once).
    cancelled_behind = 0
    cancelled_ahead = np.empty(0, dtype=float)
    start = 0
    while start < m:
        stop = min(start + block_arrivals, m)
        size = stop - start
        blk = slice(start, stop)
        arr_blk = arrivals[blk]
        base = cum_all[blk] - cancelled_behind
        if cancelled_ahead.size:
            ahead_bins = np.searchsorted(arr_blk, cancelled_ahead,
                                         side='left')
            base = base - np.cumsum(
                np.bincount(ahead_bins, minlength=size + 1))[:size]
        # Offset of the within-block running-minimum closed form:
        # T_i = i + min(min_{start<=j<=i}(N + L_j - j), t_prev - start + 1).
        # The fixpoint helper works in block-local indices; subtracting
        # ``start`` from the live counts keeps ceiling = N - local + live
        # identical to the global N - global_index + base.
        carry = t_prev - start + 1
        blk_deps = departures[blk]
        blk_dropped, converged, tmin, blk_work = _block_fixpoint(
            arr_blk, blk_deps, base - start, carry, n_channels, max_sweeps)
        work += blk_work
        dropped[blk] = blk_dropped
        if not converged:
            work += _scalar_tail(arrivals, services, n_channels,
                                 dropped, start)
            break
        # T_{stop-1} for the next block's carry.
        t_prev = (stop - 1) + tmin
        boundary = arr_blk[-1]
        if cancelled_ahead.size:
            cancelled_behind += int(
                np.count_nonzero(cancelled_ahead <= boundary))
            cancelled_ahead = cancelled_ahead[cancelled_ahead > boundary]
        if blk_dropped.any():
            new_deps = blk_deps[blk_dropped]
            still_ahead = new_deps[new_deps > boundary]
            cancelled_behind += new_deps.size - still_ahead.size
            if still_ahead.size:
                cancelled_ahead = np.concatenate(
                    [cancelled_ahead, still_ahead])
        start = stop
    KERNEL_STATS.record_work(work)
    return dropped


def _block_fixpoint(arr_blk: np.ndarray, blk_deps: np.ndarray,
                    live: np.ndarray, carry: int, n_channels: int,
                    max_sweeps: int):
    """Iterate one block's candidate drop set to its least fixpoint.

    ``live`` holds the live-departure counts at each arrival in
    block-local indexing; any common integer offset may be folded into
    both ``live`` and ``carry`` (the drop test compares ``min(slack,
    carry)`` against ``ceiling``, and both sides shift together).  The
    global resolver passes counts shifted by ``-start``; the streaming
    block API passes raw local counts with ``carry = occupancy + 1``.

    Returns ``(blk_dropped, converged, tmin, work)`` where ``tmin =
    min(slack[-1], carry)`` reconstructs the outgoing ``T`` carry (only
    meaningful when ``converged``).
    """
    size = int(arr_blk.size)
    minimum_accumulate = np.minimum.accumulate
    floor_blk = n_channels - np.arange(size, dtype=np.int64)
    # First pass over the whole block with no in-block drops
    # cancelled; drop_i <=> T_{i-1} - L_i >= N <=> min(slack_{i-1},
    # carry) > ceiling_i (integers; slack_{-1} := +inf).
    ceiling = floor_blk + live
    slack = minimum_accumulate(ceiling)
    shifted = np.empty_like(slack)
    shifted[0] = carry
    shifted[1:] = np.minimum(slack[:-1], carry)
    blk_dropped = shifted > ceiling
    pending = np.flatnonzero(blk_dropped)
    sweeps = 1
    work = size
    # Incremental rounds: the candidate set only grows (monotone
    # from below), and a cancelled departure bins strictly after
    # its own arrival, so each round only the suffix past the
    # first new drop can change — recompute exactly that, seeding
    # the running minimum from the untouched prefix.
    while pending.size:
        if sweeps >= max_sweeps:
            return blk_dropped, False, 0, work
        sweeps += 1
        cancel_bins = np.searchsorted(arr_blk,
                                      np.sort(blk_deps[pending]),
                                      side='left')
        live = live - np.cumsum(
            np.bincount(cancel_bins, minlength=size + 1))[:size]
        suffix = int(pending[0]) + 1
        if suffix >= size:
            break
        work += size - suffix
        ceiling[suffix:] = floor_blk[suffix:] + live[suffix:]
        np.minimum(minimum_accumulate(ceiling[suffix:]),
                   slack[suffix - 1], out=slack[suffix:])
        shifted[suffix:] = np.minimum(slack[suffix - 1:-1], carry)
        fresh = ((shifted[suffix:] > ceiling[suffix:])
                 & ~blk_dropped[suffix:])
        pending = suffix + np.flatnonzero(fresh)
        blk_dropped[pending] = True
    return blk_dropped, True, min(int(slack[-1]), carry), work


@dataclass(frozen=True)
class DropCarry:
    """Streaming state between arrival blocks: the busy frontier.

    ``busy`` holds the departure times — all strictly after
    ``boundary``, the last arrival processed — of accepted sessions
    still holding a channel.  It is exactly the heap the scalar loop
    would hold after processing the boundary arrival (entries at or
    before it have been popped), so ``busy.size`` is both the channel
    occupancy at the boundary and bounded by ``n_channels``: the carried
    state between blocks is O(n_channels) regardless of stream length.

    Dtype contract: ``busy`` is canonicalised to the last block's
    promotion dtype (``result_type(arrivals, services)``) at every block
    boundary — a float32 stream carries a float32 frontier instead of
    being silently upcast to float64 mid-stream.  ``boundary`` is a
    plain ``float``.
    """

    busy: np.ndarray
    boundary: float

    @classmethod
    def empty(cls) -> "DropCarry":
        return cls(busy=np.empty(0, dtype=float), boundary=-np.inf)

    @property
    def nbytes(self) -> int:
        """Carried-state footprint (frontier array + boundary scalar)."""
        return int(self.busy.nbytes) + 8


def resolve_drops_block(arrivals: np.ndarray, services: np.ndarray,
                        n_channels: int,
                        carry: "DropCarry | None" = None,
                        max_sweeps: int = _MAX_SWEEPS):
    """Resolve one arrival block of a longer stream; returns
    ``(dropped_mask, next_carry)``.

    Feeding consecutive blocks of one non-decreasing arrival stream
    through this function (threading the returned carry) yields exactly
    the mask :func:`resolve_drops` computes on the concatenated arrays —
    the block-local recursion starts from ``T_{-1} = occupancy =
    busy.size`` (the carried frontier's departures bin into this block's
    ``live`` counts like any other departure), and drops cascade forward
    only, so earlier blocks are final when a block is resolved.  A block
    that exhausts the sweep budget is replayed by the scalar heap loop
    seeded from the carried frontier, so pathological saturation costs
    one scalar block, not the stream.  The returned carry keeps the
    block's dtype; see :class:`DropCarry`.
    """
    if carry is None:
        carry = DropCarry.empty()
    m = int(arrivals.size)
    if m == 0:
        return np.zeros(0, dtype=bool), carry
    _require_valid_stream(arrivals, services, lower=carry.boundary)
    departures = arrivals + services
    # Canonical carry dtype: the block's own promotion result.  The
    # frontier used to come back at whatever ``concatenate`` promoted
    # (float32 inputs upcast to float64 mid-stream once the float64
    # empty frontier mixed in); pinning it to the block dtype keeps the
    # carry stable.
    busy = np.asarray(carry.busy, dtype=departures.dtype)
    bins = np.searchsorted(arrivals, np.sort(departures), side='left')
    live = np.cumsum(np.bincount(bins, minlength=m + 1))[:m]
    if busy.size:
        busy_bins = np.searchsorted(arrivals, np.sort(busy), side='left')
        live = live + np.cumsum(
            np.bincount(busy_bins, minlength=m + 1))[:m]
    blk_dropped, converged, _, work = _block_fixpoint(
        arrivals, departures, live, int(busy.size) + 1, n_channels,
        max_sweeps)
    if not converged:
        work += _scalar_block(arrivals, services, n_channels, busy,
                              blk_dropped)
    boundary = float(arrivals[-1])
    survivors = departures[~blk_dropped]
    next_busy = np.concatenate(
        [busy[busy > boundary], survivors[survivors > boundary]])
    KERNEL_STATS.record_work(work)
    return blk_dropped, DropCarry(busy=next_busy, boundary=boundary)


def _scalar_block(arrivals: np.ndarray, services: np.ndarray,
                  n_channels: int, busy_carry: np.ndarray,
                  dropped: np.ndarray) -> int:
    """Replay one whole block with the scalar heap loop (budget path).

    Seeds the heap from the carried busy frontier and writes final
    statuses into ``dropped``; returns the sessions replayed.
    """
    busy = busy_carry.tolist()
    heapq.heapify(busy)
    heappush = heapq.heappush
    heappop = heapq.heappop
    for i, (arrival, service) in enumerate(
            zip(arrivals.tolist(), services.tolist())):
        while busy and busy[0] <= arrival:
            heappop(busy)
        if len(busy) >= n_channels:
            dropped[i] = True
            continue
        dropped[i] = False
        heappush(busy, arrival + service)
    return int(arrivals.size)


def _scalar_tail(arrivals: np.ndarray, services: np.ndarray,
                 n_channels: int, dropped: np.ndarray, start: int) -> int:
    """Resolve arrivals from ``start`` onwards with the scalar heap loop.

    Reconstructs the heap at the boundary — departure times of accepted
    earlier sessions not yet popped when arrival ``start - 1`` was
    processed — then replays the remaining arrivals sequentially,
    writing final statuses into ``dropped``.  Returns the number of
    sessions replayed (work accounting).
    """
    if start > 0:
        boundary = arrivals[start - 1]
        head = slice(0, start)
        live = ~dropped[head] & (arrivals[head] + services[head] > boundary)
        busy = (arrivals[head][live] + services[head][live]).tolist()
        heapq.heapify(busy)
    else:
        busy = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    m = int(arrivals.size)
    for i, (arrival, service) in enumerate(
            zip(arrivals[start:].tolist(), services[start:].tolist()),
            start=start):
        while busy and busy[0] <= arrival:
            heappop(busy)
        if len(busy) >= n_channels:
            dropped[i] = True
            continue
        dropped[i] = False
        heappush(busy, arrival + service)
    return m - start
