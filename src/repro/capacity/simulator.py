"""Discrete-event M/G/N/N capacity simulator.

Replicates the paper's experiment: N = 200 dedicated channel pairs, each
of ``n_users`` generating browsing sessions with Poisson(λ = 25 s)
inter-arrival times over a 4-hour horizon; each session holds a channel
for one page's data transmission time (drawn from an empirical
distribution measured on the benchmark); a session arriving when all
channels are busy is dropped.

Shorter transmission times — the energy-aware browser's effect — mean
more supportable users at the same dropping probability (Fig. 11).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.fleet.capacity import drop_blocks, resolve_drops
from repro.runtime.seeding import spawn_seeds
from repro.units import hours, require_positive


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
        if (not isinstance(self.n_channels, numbers.Integral)
                or isinstance(self.n_channels, bool)):
            raise ValueError(f"n_channels must be an integer, got "
                             f"{self.n_channels!r}")
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
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


def arrival_draw_count(rate: float, horizon: float) -> int:
    """Exponential gaps drawn for one run (mean + 6 sigma headroom).

    Shared between the materialising :meth:`CapacitySimulator.draw` and
    the chunked :class:`repro.stream.source.ArrivalBlockSource` — both
    must consume exactly this many draws for their RNG streams to stay
    aligned draw-for-draw.
    """
    n_expected = rate * horizon
    return int(n_expected + 6 * np.sqrt(n_expected) + 10)


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

    def draw(self, n_users: int, rng: np.random.Generator):
        """Draw one run's ``(arrivals, services)`` arrays from ``rng``.

        This is the canonical draw order every equivalent path must
        reproduce: all gaps, cumulative-summed and truncated at the
        horizon, then one ``choice`` for the services.
        """
        config = self.config
        # Superposition of the users' Poisson processes is Poisson with
        # aggregate rate n_users / mean_interval.
        rate = n_users / config.mean_interval
        n_draw = arrival_draw_count(rate, config.horizon)
        gaps = rng.exponential(1.0 / rate, size=n_draw)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < config.horizon]
        services = rng.choice(self.service_times, size=arrivals.size)
        return arrivals, services

    def _draw_run(self, n_users: int, seed: Optional[int]):
        require_positive("n_users", n_users)
        config = self.config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        return self.draw(n_users, rng)

    def run(self, n_users: int, seed: Optional[int] = None
            ) -> CapacityResult:
        """Simulate ``n_users`` browsing for the configured horizon."""
        config = self.config
        arrivals, services = self._draw_run(n_users, seed)

        # The sorted-count sweep of repro.fleet.capacity resolves the
        # drop set a per-session min-heap of channel release times would.
        dropped = int(resolve_drops(arrivals, services,
                                    config.n_channels).sum())
        return CapacityResult(n_users=n_users, sessions=int(arrivals.size),
                              dropped=dropped)

    def exceeds_drop_target(self, n_users: int, target: float,
                            seed: Optional[int] = None) -> bool:
        """``run(n_users, seed).drop_probability > target``, resolving
        only as many arrival blocks as the answer needs.

        The draw is :meth:`run`'s (the services ``choice`` follows every
        gap, so nothing can be drawn lazily), which fixes ``sessions``
        up front.  Drops only accumulate block by block, and dividing by
        a fixed ``sessions`` is monotone in floats too, so the first
        block whose running ``dropped / sessions`` — the very expression
        :attr:`CapacityResult.drop_probability` evaluates — passes
        ``target`` decides the run; an unresolved tail cannot undo it.
        """
        arrivals, services = self._draw_run(n_users, seed)
        sessions = int(arrivals.size)
        dropped = 0
        for mask in drop_blocks(arrivals, services, self.config.n_channels):
            dropped += int(mask.sum())
            if dropped / sessions > target:
                return True
        return False

    def sweep_seeds(self, n_points: int,
                    seed: Optional[int] = None,
                    common_random_numbers: bool = False) -> list:
        """Per-point seeds for a sweep of ``n_points`` user counts.

        By default each point gets an independent child of one
        ``SeedSequence`` root, so adjacent sweep points are statistically
        decorrelated (sharing one seed biases the whole curve up or down
        together).  ``common_random_numbers=True`` opts back into a
        single shared seed — the classic variance-reduction trick for
        *comparing* two systems point-by-point on the same arrival luck.
        """
        base = self.config.seed if seed is None else seed
        if common_random_numbers:
            return [base] * n_points
        return spawn_seeds(base, n_points)

    def sweep(self, user_counts: Sequence[int],
              seed: Optional[int] = None,
              common_random_numbers: bool = False) -> list:
        """Run a user-count sweep; returns a list of results."""
        seeds = self.sweep_seeds(len(user_counts), seed=seed,
                                 common_random_numbers=common_random_numbers)
        return [self.run(n, seed=s)
                for n, s in zip(user_counts, seeds)]


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
