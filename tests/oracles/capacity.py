"""The M/G/N capacity run drawn and resolved whole.

``src/`` runs every capacity simulation as one block loop: an
``ArrivalBlockSource`` draws ``(arrivals, services)`` blocks and
``resolve_drops_block`` resolves them, threading one ``DropCarry``.
This module keeps the references that loop is held to:

- :func:`draw` — the run's whole-array draw, in the fixed order the
  source chunks;
- :func:`heap_drops` / :func:`resolve_drops_block` — the Erlang-loss
  drop process as a per-session min-heap loop;
- :func:`binned_live_counts` — the resolver's live counts by
  ``searchsorted`` + ``bincount`` + ``cumsum`` binning, which the
  merge rank of ``repro.fleet.capacity._live_counts`` replaced;
- :func:`chained_drops` — the kernel chained over an in-memory stream;
- :func:`in_memory_point` / :func:`in_memory_sweep` — a sweep point
  from the whole-array draw, resolved and aggregated in one block.
"""

import heapq
from typing import Iterable, Iterator

import numpy as np

from repro.capacity.simulator import CapacitySimulator
from repro.fleet import capacity as fleet_capacity
from repro.fleet.capacity import DropCarry
from repro.stream.aggregate import ServiceAggregate
from repro.stream.sweep import StreamPoint, StreamSweepResult


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
    """Drop mask of one arrival stream: the reference the drop resolver
    in ``repro.fleet.capacity`` must match session for session.

    ``busy`` seeds the heap with the departure times of sessions already
    holding a channel (a carried frontier).
    """
    heap = list(busy)
    heapq.heapify(heap)
    return _heap_resolve(heap, arrivals, services, n_channels)


def binned_live_counts(arrivals: np.ndarray, departures: np.ndarray,
                       busy: np.ndarray) -> np.ndarray:
    """``L_i``, the releases at or before each sorted arrival: every
    release is binned to the first arrival index it does not follow
    (``side='left'``, so a release equal to an arrival counts for it),
    and the per-bin counts are cumulative-summed."""
    m = int(arrivals.size)
    bins = np.searchsorted(arrivals, np.sort(departures), side='left')
    live = np.cumsum(np.bincount(bins, minlength=m + 1))[:m]
    if busy.size:
        busy_bins = np.searchsorted(arrivals, np.sort(busy), side='left')
        live = live + np.cumsum(
            np.bincount(busy_bins, minlength=m + 1))[:m]
    return live


def resolve_drops_block(arrivals, services, n_channels, carry=None,
                        *args, **kwargs):
    """The heap loop with ``resolve_drops_block``'s signature and carry,
    to patch over a caller's binding of
    ``repro.fleet.capacity.resolve_drops_block``: the heap is seeded
    from the carried frontier and handed on as the next one (its
    entries past the block's last arrival); the sweep budget is
    ignored."""
    carry = DropCarry.empty() if carry is None else carry
    if arrivals.size == 0:
        return np.zeros(0, dtype=bool), carry
    heap = carry.busy.tolist()
    heapq.heapify(heap)
    mask = _heap_resolve(heap, arrivals, services, n_channels)
    boundary = float(arrivals[-1])
    busy = np.array(sorted(t for t in heap if t > boundary), dtype=float)
    return mask, DropCarry(busy=busy, boundary=boundary)


def chained_blocks(arrivals, services, n_channels, block_arrivals=4096,
                   resolve=None, **kwargs) -> Iterator[np.ndarray]:
    """Drop mask of each ``block_arrivals``-sized block of an in-memory
    stream, in order: ``resolve`` (the kernel's ``resolve_drops_block``
    by default) chained over the blocks with one carry."""
    resolve = resolve or fleet_capacity.resolve_drops_block
    carry = None
    for start in range(0, int(arrivals.size), block_arrivals):
        blk = slice(start, start + block_arrivals)
        mask, carry = resolve(arrivals[blk], services[blk], n_channels,
                              carry, **kwargs)
        yield mask


def chained_drops(arrivals, services, n_channels, block_arrivals=4096,
                  **kwargs) -> np.ndarray:
    """The whole stream's drop mask from :func:`chained_blocks`."""
    masks = list(chained_blocks(arrivals, services, n_channels,
                                block_arrivals, **kwargs))
    return np.concatenate(masks) if masks else np.zeros(0, dtype=bool)


def draw(service_times, n_users, config, seed=None):
    """One run's ``(arrivals, services)`` drawn whole from
    ``default_rng(seed)`` (the config seed when ``None``): all gaps,
    cumulative-summed and truncated at the horizon, then one ``choice``
    for the services."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    rate = n_users / config.mean_interval
    n_expected = rate * config.horizon
    n_draw = int(n_expected + 6 * np.sqrt(n_expected) + 10)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_draw))
    arrivals = arrivals[arrivals < config.horizon]
    services = rng.choice(np.asarray(service_times, dtype=float),
                          size=arrivals.size)
    return arrivals, services


def in_memory_point(simulator, n_users, seed):
    """A sweep point from the whole-array draw: drops chained over the
    in-memory stream, every service folded in one block."""
    arrivals, services = draw(simulator.service_times, n_users,
                              simulator.config, seed)
    dropped = int(chained_drops(arrivals, services,
                                simulator.config.n_channels).sum())
    return StreamPoint.from_parts(
        n_users, seed, int(arrivals.size), dropped,
        ServiceAggregate().add_block(services))


def in_memory_sweep(pool, user_counts, config=None, seed=None):
    """``run_stream_sweep`` with every point from
    :func:`in_memory_point`."""
    simulator = CapacitySimulator(pool, config)
    counts = list(user_counts)
    seeds = simulator.sweep_seeds(len(counts), seed=seed)
    return StreamSweepResult(
        config=simulator.config,
        points=tuple(in_memory_point(simulator, n, s)
                     for n, s in zip(counts, seeds)))
