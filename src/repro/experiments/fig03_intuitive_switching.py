"""Fig. 3 — power saved by the intuitive immediate-IDLE scheme vs the
inter-transmission interval.

Section 3.1's strawman: switch the radio to IDLE right after every
transmission.  For a gap of t seconds between transmissions,

- the *original* radio rides the tail (DCH for T1, FACH for T2, IDLE
  after) and pays whatever promotion its state at t requires;
- the *intuitive* radio idles for t and always pays the expensive
  IDLE→DCH promotion (signalling energy plus >1 s of latency).

Saving(t) = E_original(t) − E_intuitive(t).  The paper measures a
break-even at t ≈ 9 s (this is where Tp comes from) and an extra delay
of ~1.75 s per transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.rrc.config import RrcConfig
from repro.rrc.tail import (
    STATE_FACH,
    STATE_IDLE,
    promotion_energy_grid,
    promotion_latency_grid,
    tail_energy_grid,
    tail_state_grid,
)

#: The paper's x-axis.
DEFAULT_INTERVALS: Tuple[float, ...] = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24)


@dataclass
class IntervalPoint:
    interval: float
    original_energy: float
    intuitive_energy: float

    @property
    def saving(self) -> float:
        return self.original_energy - self.intuitive_energy


@dataclass
class Fig03Result:
    points: List[IntervalPoint]
    crossover: Optional[float]
    extra_delay: float

    def report(self) -> str:
        rows = [(p.interval, round(p.original_energy, 2),
                 round(p.intuitive_energy, 2), round(p.saving, 2))
                for p in self.points]
        table = format_table(
            ("interval s", "original J", "intuitive J", "saving J"), rows,
            title="Fig. 3: intuitive immediate-IDLE switching")
        footer = (f"\nbreak-even interval: {self.crossover} s "
                  f"(paper: 9 s); extra delay per transmission: "
                  f"{self.extra_delay:.2f} s (paper: ~1.75 s)")
        return table + footer


def run(config: Optional[RrcConfig] = None,
        intervals: Tuple[float, ...] = DEFAULT_INTERVALS) -> Fig03Result:
    """Compute the Fig. 3 curve analytically from the radio model."""
    rrc = config or RrcConfig()
    gaps = np.asarray(intervals, dtype=float)
    b1, b2 = rrc.t1, rrc.t1 + rrc.t2
    original = (tail_energy_grid(np.zeros_like(gaps), gaps, b1, b2, rrc)
                + promotion_energy_grid(tail_state_grid(gaps, b1, b2), rrc))
    intuitive = (rrc.power.idle * gaps
                 + promotion_energy_grid(np.full(gaps.shape, STATE_IDLE),
                                         rrc))
    points = [IntervalPoint(interval, orig, intu) for interval, orig, intu
              in zip(intervals, original.tolist(), intuitive.tolist())]

    crossover = next((p.interval for p in points if p.saving > 0), None)
    idle, fach = promotion_latency_grid(np.array([STATE_IDLE, STATE_FACH]),
                                        rrc).tolist()
    extra_delay = idle - fach
    return Fig03Result(points=points, crossover=crossover,
                       extra_delay=extra_delay)
