"""The Erlang-loss drop process as a per-session min-heap loop."""

import heapq
from typing import Iterable

import numpy as np


def _heap_resolve(heap: list, arrivals: np.ndarray, services: np.ndarray,
                  n_channels: int) -> np.ndarray:
    """Run the heap loop over one stretch of arrivals, updating ``heap``
    (the channel release times) in place; returns the drop mask."""
    dropped = np.zeros(arrivals.size, dtype=bool)
    # Plain floats: numpy-scalar comparisons would dominate the loop.
    for i, (arrival, service) in enumerate(zip(arrivals.tolist(),
                                               services.tolist())):
        while heap and heap[0] <= arrival:
            heapq.heappop(heap)
        if len(heap) >= n_channels:
            dropped[i] = True
            continue
        heapq.heappush(heap, arrival + service)
    return dropped


def heap_drops(arrivals: np.ndarray, services: np.ndarray,
               n_channels: int, busy: Iterable[float] = ()) -> np.ndarray:
    """Drop mask of one arrival stream: the reference every drop
    resolver in ``repro.fleet.capacity`` must match session for session.

    ``busy`` seeds the heap with the departure times of sessions already
    holding a channel (a carried frontier).
    """
    heap = list(busy)
    heapq.heapify(heap)
    return _heap_resolve(heap, arrivals, services, n_channels)


def resolve_drops(arrivals, services, n_channels, *args, **kwargs):
    """:func:`heap_drops` with ``resolve_drops``'s signature, to patch
    over a caller's binding of ``repro.fleet.capacity.resolve_drops``;
    block and sweep-budget arguments are ignored."""
    return heap_drops(arrivals, services, n_channels)


def drop_blocks(arrivals, services, n_channels, block_arrivals=4096,
                *args, **kwargs):
    """Per-block masks of :func:`heap_drops` with ``drop_blocks``'s
    signature, to patch over a caller's binding of
    ``repro.fleet.capacity.drop_blocks``: one heap carried across
    ``block_arrivals``-sized slices; the sweep budget is ignored."""
    heap: list = []
    for start in range(0, int(arrivals.size), block_arrivals):
        blk = slice(start, start + block_arrivals)
        yield _heap_resolve(heap, arrivals[blk], services[blk], n_channels)
