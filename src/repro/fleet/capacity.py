"""Batched Erlang-loss drop resolution via sorted-count sweeps.

The Erlang-loss process of
:class:`repro.capacity.simulator.CapacitySimulator` is the scalar heap
loop over channel release times, one Python iteration per session
(``tests/oracles/capacity.py`` keeps it).  That loop is a deterministic
function of the arrival and service-time arrays, so each arrival block
can be resolved with array sweeps instead.

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
channel) until stable.  ``L`` itself is one merge rank: the releases
(carried frontier and departures ``d_j = a_j + s_j``) are sorted, and a
stable ``argsort`` of the releases followed by the already-sorted
arrivals — two runs, merged once — places each release before an equal
arrival, so arrival ``i``'s position minus ``i`` is ``L_i``.
(``tests/oracles/capacity.py`` keeps the ``searchsorted`` + ``bincount``
+ ``cumsum`` binning this replaced.)

Two facts make the iteration exact and well-behaved:

- *Monotone from below*: cancelling more departures raises the
  occupancy everywhere, which can only drop more arrivals, so from
  ``C = ∅`` the candidate climbs a finite lattice to the least fixpoint
  — and any fixpoint equals the sequential heap answer (induction over
  events: the first event where they could differ sees the same
  occupancy).  A corollary: while ``C`` is a *subset* of the true drop
  set, every drop a sweep finds is a true drop.
- *Drops cascade forward only*, so the stream is processed in slices of
  at most ``_BLOCK_ARRIVALS`` arrivals: each slice's fixpoint runs with
  all earlier slices finalised (their still-busy departures carried as
  a :class:`DropCarry`), which keeps the number of sweeps proportional
  to the *local* cascade depth instead of the global one.

:func:`resolve_drops_block` is the one drop algorithm: it validates a
block of any size once, then chains the per-slice fixpoint over its
consecutive ``_BLOCK_ARRIVALS``-sized slices, so a 65,536-arrival
stream block costs what sixteen 4,096-arrival blocks cost.  Every
capacity run feeds it the blocks of an
:class:`~repro.capacity.simulator.ArrivalBlockSource`, threading one
carry (:func:`repro.capacity.simulator.resolve_source`, and the
:mod:`repro.sched` unit loop).  Dense saturation (binary-search probes
far above capacity) can still cascade heavily inside a slice; past the
sweep budget that slice alone is replayed by the scalar heap loop, and
the next slice goes back to the vectorised path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.runtime.observability import KERNEL_STATS
from repro.sim.kernel import SimulationError

#: Arrivals per slice, the unit every block is resolved in: large
#: enough to amortise the NumPy call overhead of one sweep, small enough
#: that saturated cascades stay local.
_BLOCK_ARRIVALS = 4096
#: Sweeps allowed per slice before the scalar fallback replays it.
_MAX_SWEEPS = 96


def _require_valid_stream(arrivals, services,
                          lower: "float | None" = None) -> None:
    """Reject the two verified silent-wrongness inputs up front.

    The kernel's correctness proof leans on two preconditions it never
    used to check.  *Unsorted arrivals* silently produce a wrong drop
    mask (``[5.0, 0.0, 1.0]`` with one channel drops two sessions where
    the sorted stream drops none): the live-count merge rank assumes the
    query side is ordered.  *NaN/inf sessions* silently vanish — every
    comparison with NaN is False, so a NaN-service session is never
    counted as a departure and never enters the carried frontier, yet
    its arrival is happily marked accepted.  Both checks are one
    vectorised pass, negligible next to the sort the kernel does
    anyway.  ``lower`` (the carried block boundary) guards the
    cross-block ordering contract the same way.
    """
    if arrivals.ndim != 1:
        raise ValueError(f"arrivals and services must be 1-D streams, "
                         f"got shape {arrivals.shape}")
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
    if lower is not None and arrivals.size and bool(arrivals[0] < lower):
        raise ValueError(
            f"block arrivals start at {float(arrivals[0])!r}, before "
            f"the carried boundary {lower!r}; blocks must continue "
            f"one non-decreasing stream")


def _block_fixpoint(arr_blk: np.ndarray, blk_deps: np.ndarray,
                    live: np.ndarray, carry: int, n_channels: int,
                    max_sweeps: int):
    """Iterate one slice's candidate drop set to its least fixpoint.

    ``live`` holds the live-departure counts at each arrival of the
    slice (carried frontier included) and ``carry`` is the occupancy at
    the slice start plus one.  Returns ``(blk_dropped, converged,
    work)``.
    """
    size = int(arr_blk.size)
    minimum_accumulate = np.minimum.accumulate
    # First pass over the whole slice with no in-slice drops
    # cancelled; drop_i <=> T_{i-1} - L_i >= N <=> min(slack_{i-1},
    # carry) > ceiling_i (integers; slack_{-1} := +inf).
    ceiling = (n_channels - np.arange(size, dtype=np.int64)) + live
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
    # the running minimum from the untouched prefix.  The cancelled
    # departures are binned against the suffix alone and subtracted
    # from its ceilings in place: one binned into the prefix would
    # lower every suffix count by one, exactly as one binned at the
    # suffix start does, and prefix entries are never read again
    # (the suffix only moves right).
    while pending.size:
        if sweeps >= max_sweeps:
            return blk_dropped, False, work
        sweeps += 1
        suffix = int(pending[0]) + 1
        if suffix >= size:
            break
        tail = size - suffix
        work += tail
        cancel_bins = np.searchsorted(arr_blk[suffix:],
                                      np.sort(blk_deps[pending]),
                                      side='left')
        ceiling[suffix:] -= np.cumsum(
            np.bincount(cancel_bins, minlength=tail + 1)[:tail])
        seed = slack[suffix - 1]
        minimum_accumulate(ceiling[suffix:], out=slack[suffix:])
        np.minimum(slack[suffix:], seed, out=slack[suffix:])
        np.minimum(slack[suffix - 1:-1], carry, out=shifted[suffix:])
        fresh = ((shifted[suffix:] > ceiling[suffix:])
                 & ~blk_dropped[suffix:])
        pending = suffix + np.flatnonzero(fresh)
        blk_dropped[pending] = True
    return blk_dropped, True, work


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
    with strictly positive services (a zero service would free its
    channel *before* its own arrival claims one) through this function,
    threading the returned carry, yields exactly the mask the scalar
    heap loop computes on the concatenated arrays::

        while busy and busy[0] <= arrival: heappop(busy)
        if len(busy) >= n_channels: drop
        else: heappush(busy, arrival + service)

    The block-local recursion starts from ``T_{-1} = occupancy =
    busy.size`` (the carried frontier's departures bin into this block's
    ``live`` counts like any other departure), and drops cascade forward
    only, so earlier blocks are final when a block is resolved.  A
    block longer than ``_BLOCK_ARRIVALS`` is resolved as that chain
    itself, over consecutive ``_BLOCK_ARRIVALS``-sized slices; the carry
    bytes are the same as one whole-block pass, because the frontier is
    built by order-preserving ``> boundary`` filters only.  A slice that
    exhausts the sweep budget is replayed by the scalar heap loop seeded
    from the carried frontier, so pathological saturation costs one
    scalar slice, not the block.  The returned carry keeps the block's
    dtype; see :class:`DropCarry`.
    """
    if carry is None:
        carry = DropCarry.empty()
    _require_valid_stream(arrivals, services, lower=carry.boundary)
    m = int(arrivals.size)
    if m == 0:
        return np.zeros(0, dtype=bool), carry
    dropped = np.empty(m, dtype=bool)
    for start in range(0, m, _BLOCK_ARRIVALS):
        blk = slice(start, start + _BLOCK_ARRIVALS)
        dropped[blk], carry = _resolve_slice(
            arrivals[blk], services[blk], n_channels, carry, max_sweeps)
    return dropped, carry


def _live_counts(arrivals: np.ndarray, departures: np.ndarray,
                 busy: np.ndarray) -> np.ndarray:
    """``L_i``: the releases (carried ``busy`` and the slice's
    ``departures``) at or before each sorted arrival ``a_i``, by merge
    rank.  In one stable order of the sorted releases followed by the
    arrivals, a release sorts before an equal arrival (the heap's
    ``busy[0] <= arrival``), so arrival ``i``'s rank minus the ``i``
    arrivals ahead of it is ``L_i``."""
    released = np.concatenate([busy, departures])
    released.sort()
    order = np.concatenate([released, arrivals]).argsort(kind="stable")
    return np.flatnonzero(order >= released.size) \
        - np.arange(arrivals.size)


def _resolve_slice(arrivals: np.ndarray, services: np.ndarray,
                   n_channels: int, carry: DropCarry, max_sweeps: int):
    """:func:`resolve_drops_block` on one validated, non-empty slice of
    at most ``_BLOCK_ARRIVALS`` arrivals: the fixpoint, the scalar
    fallback past the sweep budget, and the next carry."""
    m = int(arrivals.size)
    departures = arrivals + services
    # Canonical carry dtype: the block's own promotion result.  The
    # frontier used to come back at whatever ``concatenate`` promoted
    # (float32 inputs upcast to float64 mid-stream once the float64
    # empty frontier mixed in); pinning it to the block dtype keeps the
    # carry stable.
    busy = np.asarray(carry.busy, dtype=departures.dtype)
    live = _live_counts(arrivals, departures, busy)
    blk_dropped, converged, work = _block_fixpoint(
        arrivals, departures, live, int(busy.size) + 1, n_channels,
        max_sweeps)
    if not converged:
        work += _scalar_block(arrivals, services, n_channels, busy,
                              blk_dropped)
    boundary = float(arrivals[-1])
    survivors = departures[~blk_dropped]
    next_busy = np.concatenate(
        [busy[busy > boundary], survivors[survivors > boundary]])
    KERNEL_STATS.add(work_units=work)
    return blk_dropped, DropCarry(busy=next_busy, boundary=boundary)


def _scalar_block(arrivals: np.ndarray, services: np.ndarray,
                  n_channels: int, busy_carry: np.ndarray,
                  dropped: np.ndarray) -> int:
    """Replay one whole slice with the scalar heap loop (budget path).

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
