"""Chunked arrival/session generation, draw-for-draw identical to the
materialised arrays.

:meth:`repro.capacity.simulator.CapacitySimulator.draw` consumes one
``Generator`` in a fixed order: all ``n_draw`` exponential gaps, then
one ``choice`` for every arrival inside the horizon.  Chunking that
order naively would interleave gap and service draws and change every
value, so the source replays the *same seed* through two generators:

- the **lead** generator runs pass 1 — it consumes exactly ``n_draw``
  exponentials in blocks (counting how many cumulative arrivals fall
  inside the horizon) and is then positioned precisely where the
  materialised RNG sits before its ``choice`` call, from which the
  service blocks are drawn;
- the **replay** generator re-draws the gap stream in pass 2, emitting
  arrival blocks paired with the lead generator's service blocks.

Two identities make the chunked draws bitwise equal to the whole-array
ones (both verified by ``tests/stream/test_source.py``):

- ``Generator.exponential``/``choice`` consume the bit stream per
  element, so splitting one ``size=n`` call into chunks summing to ``n``
  yields the same values and leaves the generator in the same state;
- prefix sums chunk exactly when the carry is folded into the first
  element *before* ``np.cumsum`` — ``np.add.accumulate`` is strictly
  sequential left-to-right, so ``cumsum([c + x0, x1, ...])`` reproduces
  the tail of ``cumsum([... , x0, x1, ...])`` addition-for-addition.

Generator states snapshot to JSON-safe dicts, so a :mod:`repro.sched`
work unit can start the stream at any block boundary its plan
recorded.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.capacity.simulator import CapacityConfig, arrival_draw_count
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.units import require_positive


class ArrivalBlockSource:
    """Bounded-memory generator of ``(arrivals, services)`` blocks.

    Concatenating every block this source yields reproduces
    ``CapacitySimulator.draw(n_users, default_rng(seed))`` bit for bit,
    while never holding more than ``block_arrivals`` draws at once.
    """

    def __init__(self, service_times, n_users: int,
                 config: Optional[CapacityConfig] = None,
                 seed: Optional[int] = None,
                 block_arrivals: int = DEFAULT_BLOCK_ARRIVALS):
        require_positive("n_users", n_users)
        if block_arrivals < 1:
            raise ValueError(
                f"block_arrivals must be >= 1, got {block_arrivals}")
        self.service_times = np.asarray(service_times, dtype=float)
        self.config = config or CapacityConfig()
        self.n_users = int(n_users)
        self.block_arrivals = int(block_arrivals)
        self.rate = n_users / self.config.mean_interval
        self.n_draw = arrival_draw_count(self.rate, self.config.horizon)
        seed_value = self.config.seed if seed is None else seed
        self._lead = np.random.default_rng(seed_value)
        self._replay = np.random.default_rng(seed_value)
        #: Sessions inside the horizon; None until pass 1 has run.
        self._n_sessions: Optional[int] = None
        #: Cumulative-sum carry of the replay pass (last arrival time).
        self._carry = 0.0
        #: Arrivals already yielded by :meth:`blocks`.
        self._emitted = 0

    def scan(self) -> int:
        """Pass 1: count in-horizon sessions, position the service RNG.

        Consumes exactly ``n_draw`` exponentials from the lead
        generator — also the ones past the horizon crossing, which the
        materialised path draws and discards — so service draws start
        from the identical generator state.  Idempotent.
        """
        if self._n_sessions is not None:
            return self._n_sessions
        horizon = self.config.horizon
        scale = 1.0 / self.rate
        remaining = self.n_draw
        carry = 0.0
        sessions = 0
        crossed = False
        while remaining:
            size = min(self.block_arrivals, remaining)
            gaps = self._lead.exponential(scale, size=size)
            remaining -= size
            if crossed:
                continue
            gaps[0] += carry
            block = np.cumsum(gaps)
            carry = float(block[-1])
            # arrivals are non-decreasing (gaps >= 0), so the count of
            # entries < horizon is one searchsorted.
            below = int(np.searchsorted(block, horizon, side='left'))
            sessions += below
            crossed = below < size
        self._n_sessions = sessions
        return sessions

    @property
    def n_sessions(self) -> int:
        """Sessions inside the horizon (runs pass 1 on first use)."""
        return self.scan()

    def blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Pass 2: yield ``(arrivals, services)`` blocks in order.

        Internal cursors (generator states, cumsum carry, emitted
        count) advance *before* each yield, so :meth:`state` captured
        between blocks is a coherent boundary snapshot.
        """
        total = self.scan()
        scale = 1.0 / self.rate
        while self._emitted < total:
            size = min(self.block_arrivals, total - self._emitted)
            gaps = self._replay.exponential(scale, size=size)
            gaps[0] += self._carry
            arrivals = np.cumsum(gaps)
            self._carry = float(arrivals[-1])
            services = self._lead.choice(self.service_times, size=size)
            self._emitted += size
            yield arrivals, services

    def state(self) -> dict:
        """JSON-safe snapshot of the source at a block boundary."""
        if self._n_sessions is None:
            raise RuntimeError("cannot snapshot before scan()")
        return {
            "version": 1,
            "lead": self._lead.bit_generator.state,
            "replay": self._replay.bit_generator.state,
            "carry": self._carry,
            "emitted": self._emitted,
            "n_sessions": self._n_sessions,
        }

    def restore(self, state: dict) -> None:
        """Resume from a :meth:`state` snapshot (same construction
        parameters assumed — the caller fingerprints them)."""
        self._lead.bit_generator.state = state["lead"]
        self._replay.bit_generator.state = state["replay"]
        self._carry = float(state["carry"])
        self._emitted = int(state["emitted"])
        self._n_sessions = int(state["n_sessions"])
