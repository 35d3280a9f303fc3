"""The ``repro stream-sweep`` driver: fig11-shaped capacity sweeps in
bounded memory.

Each sweep point runs one capacity simulation and reports the drop
probability plus service-time statistics (exact moments and extrema,
sketch quantiles).  :func:`sweep_point` draws ``(arrivals, services)``
blocks from an :class:`~repro.capacity.simulator.ArrivalBlockSource`,
resolves them through :func:`~repro.capacity.simulator.resolve_source`
— the block loop every capacity run shares, threading one
:class:`~repro.fleet.capacity.DropCarry` busy frontier (at most
``n_channels`` departures) — and folds each block into the aggregate,
so its resident state is O(block + n_channels + sketch) at any horizon.

A resumable or multi-process sweep is a :mod:`repro.sched` work dir
(``repro stream-sweep --work-dir D``, ``--parallel N``); the serial
sweep keeps nothing on disk.

The source chunks the draw without changing it, the resolver threads
its carry exactly, and the aggregators are chunking-invariant, so the
points equal those of a whole-array draw and resolve at any block size
— ``tests/stream/test_golden_stream.py`` holds that line against the
materialised reference in ``tests/oracles/capacity.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.capacity.simulator import (CapacityConfig, CapacitySimulator,
                                     resolve_source)
from repro.runtime.observability import KERNEL_STATS
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.stream.aggregate import SERVICE_QUANTILES, ServiceAggregate
from repro.stream.shard import params_fingerprint


def lognormal_pool(size: int = 400, median: float = 14.0,
                   sigma: float = 0.5, seed: int = 7) -> np.ndarray:
    """Synthetic empirical service-time pool (benchmark-page shaped).

    Matches the pool the fleet benchmarks draw: lognormal around the
    paper's ~14 s median page transmission time.
    """
    rng = np.random.default_rng(seed)
    return rng.lognormal(np.log(median), sigma, size=size)


def default_user_counts(config: CapacityConfig, mean_service: float,
                        factors: Sequence[float] = (0.8, 0.9, 1.0,
                                                    1.1, 1.2)) -> list:
    """User counts bracketing the capacity knee.

    One channel sustains ``mean_interval / mean_service`` users at
    ρ = 1, so ``n_channels`` channels saturate near ``n_channels ×
    per_user``; the factors sweep across that knee like fig11 does.
    """
    per_user = config.mean_interval / mean_service
    base = config.n_channels * per_user
    return [max(1, int(round(base * f))) for f in factors]


@dataclass(frozen=True)
class StreamPoint:
    """One sweep point: loss outcome + service-time statistics."""

    n_users: int
    seed: int
    sessions: int
    dropped: int
    #: Service-time statistics; None when the point has no session.
    service_mean: Optional[float]
    service_std: Optional[float]
    service_min: Optional[float]
    service_max: Optional[float]
    service_p50: Optional[float]
    service_p90: Optional[float]
    service_p99: Optional[float]
    rank_error_bound: int

    @property
    def drop_probability(self) -> float:
        if self.sessions == 0:
            return 0.0
        return self.dropped / self.sessions

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "seed": self.seed,
            "sessions": self.sessions,
            "dropped": self.dropped,
            "drop_probability": self.drop_probability,
            "service_mean": self.service_mean,
            "service_std": self.service_std,
            "service_min": self.service_min,
            "service_max": self.service_max,
            "service_p50": self.service_p50,
            "service_p90": self.service_p90,
            "service_p99": self.service_p99,
            "rank_error_bound": self.rank_error_bound,
        }

    @classmethod
    def from_parts(cls, n_users: int, seed: int, sessions: int,
                   dropped: int, aggregate: ServiceAggregate
                   ) -> "StreamPoint":
        empty = aggregate.moments.count == 0

        def stat(value) -> Optional[float]:
            return None if empty else float(value)

        p50, p90, p99 = aggregate.sketch.quantiles(
            SERVICE_QUANTILES).values()
        return cls(
            n_users=int(n_users), seed=int(seed),
            sessions=int(sessions), dropped=int(dropped),
            service_mean=stat(aggregate.moments.mean),
            service_std=stat(aggregate.moments.std),
            service_min=stat(aggregate.extrema.minimum),
            service_max=stat(aggregate.extrema.maximum),
            service_p50=stat(p50), service_p90=stat(p90),
            service_p99=stat(p99),
            rank_error_bound=aggregate.sketch.rank_error_bound)


@dataclass(frozen=True)
class StreamSweepResult:
    """All points of one stream sweep plus the config that produced
    them.  ``report()``/``to_dict()`` carry no runtime facts: the
    serial sweep and every :mod:`repro.sched` executor print the same
    bytes."""

    config: CapacityConfig
    points: Tuple[StreamPoint, ...]

    def report(self) -> str:
        rows = [[p.n_users, p.sessions, p.dropped,
                 f"{p.drop_probability:.4f}"]
                + ["-" if value is None else value
                   for value in (p.service_mean, p.service_std,
                                 p.service_p50, p.service_p90,
                                 p.service_p99)]
                for p in self.points]
        return format_table(
            ["users", "sessions", "dropped", "p_drop", "svc_mean",
             "svc_std", "p50", "p90", "p99"],
            rows,
            title=(f"Stream sweep: N={self.config.n_channels} channels, "
                   f"horizon={self.config.horizon:.0f}s"))

    def to_dict(self) -> dict:
        return {
            "config": {
                "n_channels": self.config.n_channels,
                "mean_interval": self.config.mean_interval,
                "horizon": self.config.horizon,
                "seed": self.config.seed,
            },
            "points": [p.to_dict() for p in self.points],
        }


def point_fingerprint(pool: np.ndarray, config: CapacityConfig,
                      n_users: int, seed: int,
                      block_arrivals: int) -> str:
    """Fingerprint of everything that determines one point's stream."""
    pool_hash = hashlib.sha256(
        np.ascontiguousarray(pool, dtype=np.float64).tobytes()
    ).hexdigest()
    return params_fingerprint({
        "pool": pool_hash,
        "n_channels": config.n_channels,
        "mean_interval": config.mean_interval,
        "horizon": config.horizon,
        "n_users": int(n_users),
        "seed": int(seed),
        "block_arrivals": int(block_arrivals),
    })


def sweep_point(simulator: CapacitySimulator, n_users: int, seed: int,
                *, block_arrivals: int = DEFAULT_BLOCK_ARRIVALS
                ) -> StreamPoint:
    """Run one sweep point: the capacity run plus its service-time
    aggregate, one block at a time."""
    aggregate = ServiceAggregate()
    source = simulator.source(n_users, seed, block_arrivals)
    sessions = source.scan()
    dropped = 0
    for count, services, carry in resolve_source(
            source, simulator.config.n_channels):
        dropped += count
        aggregate.add_block(services)
        KERNEL_STATS.add(
            stream_blocks=1,
            stream_peak_carried_bytes=carry.nbytes
            + aggregate.state_nbytes())
    return StreamPoint.from_parts(n_users, seed, sessions, dropped,
                                  aggregate)


def run_stream_sweep(pool: np.ndarray,
                     user_counts: Sequence[int],
                     config: Optional[CapacityConfig] = None, *,
                     seed: Optional[int] = None,
                     block_arrivals: int = DEFAULT_BLOCK_ARRIVALS
                     ) -> StreamSweepResult:
    """Sweep ``user_counts`` serially, one :class:`StreamPoint` each.

    The multi-process (and resumable) sweep is
    :func:`repro.sched.run_distributed_sweep`, whose merged result is
    byte-identical to this one.
    """
    simulator = CapacitySimulator(pool, config)
    counts = list(user_counts)
    seeds = simulator.sweep_seeds(len(counts), seed=seed)
    points = [sweep_point(simulator, n, s, block_arrivals=block_arrivals)
              for n, s in zip(counts, seeds)]
    return StreamSweepResult(config=simulator.config,
                             points=tuple(points))
