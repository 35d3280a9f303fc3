"""Backpressure-aware streaming driver for capacity runs.

:func:`stream_capacity_run` replaces ``CapacitySimulator.run`` with a
producer/consumer pipeline: a producer thread draws ``(arrivals,
services)`` blocks from an :class:`~repro.stream.source.
ArrivalBlockSource` into a bounded queue (backpressure — drawing never
races ahead of resolving by more than ``queue_depth`` blocks), while
the consumer threads each block through :func:`repro.fleet.capacity.
resolve_drops_block`, carrying only the :class:`~repro.fleet.capacity.
DropCarry` busy frontier (≤ ``n_channels`` departures) plus whatever
mergeable aggregate the caller wants folded over the service stream.

With a :class:`~repro.stream.shard.ShardStore` attached the run is
durable: every ``checkpoint_every`` blocks the source RNG state, the
carry and the aggregate state spill to a rolling shard, and a rerun
with the same store resumes from the last intact checkpoint (or
returns the final shard outright).  The resumed run is bit-identical
to an uninterrupted one because every piece of carried state snapshots
exactly (PCG64 state, float arrays, big-integer aggregate sums).

The peak resident state is O(block + queue_depth·block + n_channels +
sketch), independent of the horizon — this is what lets a sweep run
under an address-space rlimit that the materialised path cannot
satisfy (``tests/stream/test_rlimit.py`` demonstrates exactly that).
"""

from __future__ import annotations

import queue
import threading
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.capacity.simulator import CapacityResult, CapacitySimulator
from repro.fleet.capacity import DropCarry, resolve_drops_block
from repro.runtime.observability import KERNEL_STATS
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.stream.aggregate import ServiceAggregate
from repro.stream.shard import ShardStore
from repro.stream.source import ArrivalBlockSource
from repro.units import require_positive

#: Queue slots between producer and consumer: enough to hide draw
#: latency behind resolve latency, few enough to cap in-flight blocks.
DEFAULT_QUEUE_DEPTH = 4

_CHECKPOINT_KEY = "checkpoint"
_FINAL_KEY = "final"
_DONE = object()


def _iter_blocks(source: ArrivalBlockSource, queue_depth: int
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray, dict]]:
    """Yield ``(arrivals, services, source_state)`` with a producer
    thread drawing ahead through a bounded queue.

    The state dict snapshots the source *after* the block was drawn, so
    it is the coherent resume point for the following block.  Producer
    exceptions are shipped through the queue and re-raised here; on
    early exit (consumer abandons the iterator) a stop event unblocks
    the producer's ``put`` so the thread always terminates.
    """
    channel: "queue.Queue" = queue.Queue(maxsize=queue_depth)
    stop = threading.Event()

    def _produce() -> None:
        try:
            for arrivals, services in source.blocks():
                payload = (arrivals, services, source.state())
                while not stop.is_set():
                    try:
                        channel.put(payload, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if stop.is_set():
                    return
            channel.put(_DONE)
        except BaseException as exc:  # ship to the consumer
            try:
                channel.put(exc, timeout=1.0)
            except queue.Full:
                pass

    producer = threading.Thread(target=_produce, name="stream-source",
                                daemon=True)
    producer.start()
    try:
        while True:
            item = channel.get()
            if item is _DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        stop.set()
        producer.join()


def _carried_nbytes(carry: DropCarry,
                    aggregate: Optional[ServiceAggregate]) -> int:
    total = carry.nbytes
    if aggregate is not None:
        total += aggregate.state_nbytes()
    return total


def _write_checkpoint(store: ShardStore, carry: DropCarry,
                      source_state: dict, dropped: int,
                      block_index: int,
                      aggregate: Optional[ServiceAggregate]) -> int:
    meta = {
        "boundary": carry.boundary,
        "source": source_state,
        "dropped": int(dropped),
        "block_index": int(block_index),
        "aggregate": None if aggregate is None else aggregate.to_state(),
    }
    return store.put(_CHECKPOINT_KEY, {"busy": carry.busy}, meta)


def stream_capacity_run(simulator: CapacitySimulator, n_users: int,
                        seed: Optional[int] = None, *,
                        block_arrivals: int = DEFAULT_BLOCK_ARRIVALS,
                        queue_depth: int = DEFAULT_QUEUE_DEPTH,
                        aggregate: Optional[ServiceAggregate] = None,
                        store: Optional[ShardStore] = None,
                        checkpoint_every: int = 8) -> CapacityResult:
    """Run one capacity simulation in bounded memory.

    Returns the same :class:`CapacityResult` as ``simulator.run`` —
    bit-identical dropped/sessions counts — while folding the service
    stream into ``aggregate`` (if given) and checkpointing into
    ``store`` (if given).
    """
    require_positive("n_users", n_users)
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")
    config = simulator.config

    if store is not None:
        final = store.get(_FINAL_KEY)
        # A shard written by a run without an aggregate cannot serve a
        # run that wants one — fall through and recompute instead of
        # silently returning a partial (empty) aggregate.
        if final is not None and (aggregate is None
                                  or final[1].get("aggregate")):
            _, meta = final
            if aggregate is not None:
                aggregate.restore(meta["aggregate"])
            return CapacityResult(n_users=n_users,
                                  sessions=int(meta["sessions"]),
                                  dropped=int(meta["dropped"]))

    source = ArrivalBlockSource(simulator.service_times, n_users,
                                config=config, seed=seed,
                                block_arrivals=block_arrivals)
    source.scan()
    carry = DropCarry.empty()
    dropped = 0
    block_index = 0

    if store is not None:
        checkpoint = store.get(_CHECKPOINT_KEY)
        if checkpoint is not None and aggregate is not None \
                and not checkpoint[1].get("aggregate"):
            # Same coherence rule as the final shard above.
            checkpoint = None
        if checkpoint is not None:
            arrays, meta = checkpoint
            source.restore(meta["source"])
            carry = DropCarry(busy=np.asarray(arrays["busy"],
                                              dtype=float),
                              boundary=float(meta["boundary"]))
            dropped = int(meta["dropped"])
            block_index = int(meta["block_index"])
            if aggregate is not None:
                aggregate.restore(meta["aggregate"])

    for arrivals, services, source_state in _iter_blocks(source,
                                                         queue_depth):
        mask, carry = resolve_drops_block(arrivals, services,
                                          config.n_channels, carry)
        dropped += int(mask.sum())
        if aggregate is not None:
            aggregate.add_block(services)
        block_index += 1
        KERNEL_STATS.add(
            stream_blocks=1,
            stream_peak_carried_bytes=_carried_nbytes(carry, aggregate))
        if store is not None and block_index % checkpoint_every == 0:
            nbytes = _write_checkpoint(store, carry, source_state,
                                       dropped, block_index, aggregate)
            KERNEL_STATS.add(stream_spills=1, stream_shard_bytes=nbytes)

    sessions = source.n_sessions
    if store is not None:
        meta = {
            "sessions": int(sessions),
            "dropped": int(dropped),
            "aggregate": None if aggregate is None
            else aggregate.to_state(),
        }
        nbytes = store.put(_FINAL_KEY, {}, meta)
        store.discard(_CHECKPOINT_KEY)
        KERNEL_STATS.add(stream_spills=1, stream_shard_bytes=nbytes)
    return CapacityResult(n_users=n_users, sessions=int(sessions),
                          dropped=int(dropped))
