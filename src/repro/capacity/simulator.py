"""Discrete-event M/G/N/N capacity simulator.

Replicates the paper's experiment: N = 200 dedicated channel pairs, each
of ``n_users`` generating browsing sessions with Poisson(λ = 25 s)
inter-arrival times over a 4-hour horizon; each session holds a channel
for one page's data transmission time (drawn from an empirical
distribution measured on the benchmark); a session arriving when all
channels are busy is dropped.

Shorter transmission times — the energy-aware browser's effect — mean
more supportable users at the same dropping probability (Fig. 11).

Every M/G/N run has one shape: an :class:`ArrivalBlockSource` draws the
run's ``(arrivals, services)`` in blocks, and :func:`resolve_source`
threads them through :func:`repro.fleet.capacity.resolve_drops_block`
with one carried busy frontier.  Resident state is O(block +
n_channels) at any horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.capacity import (_BLOCK_ARRIVALS, DropCarry,
                                  resolve_drops_block)
from repro.runtime.seeding import spawn_seeds
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.units import hours, require_count, require_positive


@dataclass(frozen=True)
class CapacityConfig:
    """Parameters of the capacity experiment (Section 5.4)."""

    n_channels: int = 200
    #: Mean inter-session interval per user, seconds (the paper's λ).
    mean_interval: float = 25.0
    #: Simulated horizon, seconds (the paper uses 4 hours).
    horizon: float = hours(4)
    seed: int = 42

    def __post_init__(self) -> None:
        # The block kernel's occupancy ceilings are int64 counts; a
        # fractional channel count makes them disagree with the heap.
        require_count("n_channels", self.n_channels)
        require_positive("mean_interval", self.mean_interval)
        require_positive("horizon", self.horizon)


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one capacity run."""

    n_users: int
    sessions: int
    dropped: int

    @property
    def drop_probability(self) -> float:
        if self.sessions == 0:
            return 0.0
        return self.dropped / self.sessions


class ArrivalBlockSource:
    """Bounded-memory generator of one run's ``(arrivals, services)``
    blocks.

    The run's draw order is fixed: ``n_draw`` exponential gaps (the
    expected arrivals plus 6 sigma of headroom), cumulative-summed and
    truncated at the horizon, then one ``choice`` of a service time for
    every arrival inside the horizon.  Chunking that order naively would
    interleave gap and service draws and change every value, so the
    source replays the *same seed* through two generators:

    - the **lead** generator runs pass 1 (:meth:`scan`) — it consumes
      exactly ``n_draw`` exponentials in blocks, counting how many
      cumulative arrivals fall inside the horizon, and is then
      positioned where the service draws start;
    - the **replay** generator re-draws the gap stream in pass 2
      (:meth:`blocks`), emitting arrival blocks paired with the lead
      generator's service blocks.

    Two identities make any chunking yield the same values:
    ``Generator.exponential``/``choice`` consume the bit stream per
    element, so splitting one ``size=n`` call into chunks summing to
    ``n`` draws the same values; and prefix sums chunk exactly when the
    carry is folded into the first element *before* ``np.cumsum``
    (``np.add.accumulate`` is strictly sequential left to right).
    ``tests/stream/test_source.py`` checks both against the whole-array
    draw of ``tests/oracles/capacity.py``.

    Generator states snapshot to JSON-safe dicts, so a :mod:`repro.sched`
    work unit can start the stream at any block boundary its plan
    recorded.
    """

    def __init__(self, service_times, n_users: int,
                 config: Optional[CapacityConfig] = None,
                 seed: Optional[int] = None,
                 block_arrivals: int = DEFAULT_BLOCK_ARRIVALS):
        # One check for every capacity run: ``int()`` would truncate a
        # fractional count while the rate below used the raw value.
        require_count("n_users", n_users)
        if block_arrivals < 1:
            raise ValueError(
                f"block_arrivals must be >= 1, got {block_arrivals}")
        self.service_times = np.asarray(service_times, dtype=float)
        self.config = config or CapacityConfig()
        self.n_users = int(n_users)
        self.block_arrivals = int(block_arrivals)
        # Superposition of the users' Poisson processes is Poisson with
        # aggregate rate n_users / mean_interval.
        self.rate = n_users / self.config.mean_interval
        n_expected = self.rate * self.config.horizon
        self.n_draw = int(n_expected + 6 * np.sqrt(n_expected) + 10)
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
        draw order discards — so service draws start from the fixed
        generator state.  Idempotent.
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


def resolve_source(source: ArrivalBlockSource, n_channels: int
                   ) -> Iterator[Tuple[int, np.ndarray, DropCarry]]:
    """Yield ``(dropped, services, carry)`` for each block of
    ``source``: its drop count, its service draws and the busy frontier
    after it.

    One :class:`~repro.fleet.capacity.DropCarry` threads the blocks, so
    each block's count is final when yielded (drops cascade forward
    only) and a consumer that needs only a prefix can stop early.
    """
    carry = DropCarry.empty()
    for arrivals, services in source.blocks():
        mask, carry = resolve_drops_block(arrivals, services, n_channels,
                                          carry)
        yield int(mask.sum()), services, carry


class CapacitySimulator:
    """Erlang-loss simulation with empirical service times."""

    def __init__(self, service_times: Sequence[float],
                 config: Optional[CapacityConfig] = None):
        # asarray, not array: an ndarray pool is used in place, not
        # copied.
        times = np.asarray(service_times, dtype=float)
        if times.size == 0:
            raise ValueError("need at least one service-time sample")
        if (times <= 0).any():
            raise ValueError("service times must be positive")
        self.service_times = times
        self.config = config or CapacityConfig()

    @property
    def mean_service_time(self) -> float:
        return float(self.service_times.mean())

    def source(self, n_users: int, seed: Optional[int] = None,
               block_arrivals: int = _BLOCK_ARRIVALS
               ) -> ArrivalBlockSource:
        """The block source of one run (``seed=None``: the config's).

        The default block is the resolver's own slice, so a one-bit
        probe stops within one slice of its deciding arrival.
        """
        return ArrivalBlockSource(self.service_times, n_users,
                                  config=self.config, seed=seed,
                                  block_arrivals=block_arrivals)

    def run(self, n_users: int, seed: Optional[int] = None
            ) -> CapacityResult:
        """Simulate ``n_users`` browsing for the configured horizon."""
        source = self.source(n_users, seed)
        sessions = source.scan()
        dropped = sum(count for count, _, _ in
                      resolve_source(source, self.config.n_channels))
        return CapacityResult(n_users=n_users, sessions=sessions,
                              dropped=dropped)

    def exceeds_drop_target(self, n_users: int, target: float,
                            seed: Optional[int] = None) -> bool:
        """``run(n_users, seed).drop_probability > target``, resolving
        only as many arrival blocks as the answer needs.

        The source's first pass fixes ``sessions`` up front.  Drops
        only accumulate block by block, and dividing by a fixed
        ``sessions`` is monotone in floats too, so the first block whose
        running ``dropped / sessions`` — the very expression
        :attr:`CapacityResult.drop_probability` evaluates — passes
        ``target`` decides the run; an unresolved tail cannot undo it.
        """
        source = self.source(n_users, seed)
        sessions = source.scan()
        dropped = 0
        for count, _, _ in resolve_source(source, self.config.n_channels):
            dropped += count
            if dropped / sessions > target:
                return True
        return False

    def sweep_seeds(self, n_points: int,
                    seed: Optional[int] = None) -> list:
        """Per-point seeds for a sweep of ``n_points`` user counts.

        Each point gets an independent child of one ``SeedSequence``
        root, so adjacent sweep points are statistically decorrelated
        (sharing one seed biases the whole curve up or down together).
        """
        base = self.config.seed if seed is None else seed
        return spawn_seeds(base, n_points)


def capacity_at_drop_target(simulator: CapacitySimulator, target: float,
                            lo: int = 10, hi: int = 5000,
                            seed: Optional[int] = None) -> int:
    """Largest user count in ``[lo, hi]`` whose drop probability stays
    ≤ ``target`` (``lo`` when none does).

    Binary search over a monotone (in expectation) dropping curve; each
    probe asks the simulator's ``exceeds_drop_target`` for its one bit.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if not simulator.exceeds_drop_target(hi, target, seed=seed):
        return hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if simulator.exceeds_drop_target(mid, target, seed=seed):
            hi = mid - 1
        else:
            lo = mid
    return lo
