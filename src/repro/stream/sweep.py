"""The ``repro stream-sweep`` driver: fig11-shaped capacity sweeps in
bounded memory.

Each sweep point runs one capacity simulation and reports the drop
probability plus service-time statistics (exact moments and extrema,
sketch quantiles).  Both execution paths produce the *same points*:

- the **in-memory** path materialises the arrays like fig11 does and
  folds them into one aggregate in a single block;
- the **streamed** path draws ``(arrivals, services)`` blocks from an
  :class:`~repro.stream.source.ArrivalBlockSource`, threads each
  through :func:`repro.fleet.capacity.resolve_drops_block` with one
  :class:`~repro.fleet.capacity.DropCarry` busy frontier (at most
  ``n_channels`` departures) and folds it into the aggregate, so its
  resident state is O(block + n_channels + sketch) at any horizon.

A resumable sweep is a :mod:`repro.sched` work dir (``repro
stream-sweep --work-dir D``); the serial streamed path keeps nothing on
disk.

Because the block source is draw-for-draw identical to the
materialised draw, the block resolver threads its carry exactly, and
the aggregators are chunking-invariant, the two paths yield
byte-identical reports — ``tests/stream/test_golden_stream.py`` holds
that line.  The report text deliberately carries no streamed/in-memory
marker; execution mode is runtime metadata, not a result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.fleet.capacity import (DropCarry, resolve_drops,
                                  resolve_drops_block)
from repro.runtime.observability import KERNEL_STATS
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.stream.aggregate import SERVICE_QUANTILES, ServiceAggregate
from repro.stream.shard import params_fingerprint
from repro.stream.source import ArrivalBlockSource


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
    service_mean: float
    service_std: float
    service_min: float
    service_max: float
    service_p50: float
    service_p90: float
    service_p99: float
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
        p50, p90, p99 = aggregate.sketch.quantiles(
            SERVICE_QUANTILES).values()
        return cls(
            n_users=int(n_users), seed=int(seed),
            sessions=int(sessions), dropped=int(dropped),
            service_mean=aggregate.moments.mean,
            service_std=aggregate.moments.std,
            service_min=float(aggregate.extrema.minimum),
            service_max=float(aggregate.extrema.maximum),
            service_p50=float(p50), service_p90=float(p90),
            service_p99=float(p99),
            rank_error_bound=aggregate.sketch.rank_error_bound)


@dataclass(frozen=True)
class StreamSweepResult:
    """All points of one stream sweep plus the config that produced
    them.  ``report()``/``to_dict()`` are mode-free by design: the
    golden tests compare them across streamed and in-memory runs."""

    config: CapacityConfig
    points: Tuple[StreamPoint, ...]

    def report(self) -> str:
        rows = [[p.n_users, p.sessions, p.dropped,
                 f"{p.drop_probability:.4f}", p.service_mean,
                 p.service_std, p.service_p50, p.service_p90,
                 p.service_p99] for p in self.points]
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
                *, stream: bool,
                block_arrivals: int = DEFAULT_BLOCK_ARRIVALS
                ) -> StreamPoint:
    """Run one sweep point on either path; the results are identical."""
    aggregate = ServiceAggregate()
    config = simulator.config
    if stream:
        source = ArrivalBlockSource(simulator.service_times, n_users,
                                    config=config, seed=seed,
                                    block_arrivals=block_arrivals)
        sessions = source.scan()
        carry = DropCarry.empty()
        dropped = 0
        for arrivals, services in source.blocks():
            mask, carry = resolve_drops_block(arrivals, services,
                                              config.n_channels, carry)
            dropped += int(mask.sum())
            aggregate.add_block(services)
            KERNEL_STATS.add(
                stream_blocks=1,
                stream_peak_carried_bytes=carry.nbytes
                + aggregate.state_nbytes())
    else:
        arrivals, services = simulator.draw(
            n_users, np.random.default_rng(seed))
        dropped = int(resolve_drops(
            arrivals, services, config.n_channels).sum())
        sessions = int(arrivals.size)
        aggregate.add_block(services)
    return StreamPoint.from_parts(n_users, seed, sessions, dropped,
                                  aggregate)


def run_stream_sweep(pool: np.ndarray,
                     user_counts: Sequence[int],
                     config: Optional[CapacityConfig] = None, *,
                     seed: Optional[int] = None,
                     stream: bool = True,
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
    points = [sweep_point(simulator, n, s, stream=stream,
                          block_arrivals=block_arrivals)
              for n, s in zip(counts, seeds)]
    return StreamSweepResult(config=simulator.config,
                             points=tuple(points))
