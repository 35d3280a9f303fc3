"""Fig. 7 — cumulative distribution of webpage reading times.

Reproduced from the synthetic 40-user trace.  The calibration anchors
are the three fractions the paper's analysis depends on: 30 % of reads
under the interest threshold (2 s), 53 % under Tp = 9 s, and 68 % under
Td = 20 s, after discarding reads over 10 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.stats import cdf_points
from repro.analysis.weibull import WeibullFit, fit_weibull
from repro.analysis.tables import format_table
from repro.fleet.policy import threshold_fractions
from repro.traces.generator import TraceConfig, generate_trace

#: (threshold seconds, paper's CDF %) anchors.
PAPER_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (2.0, 30.0), (9.0, 53.0), (20.0, 68.0))


@dataclass
class Fig07Result:
    grid: List[Tuple[float, float]]
    anchors: List[Tuple[float, float, float]]  # (threshold, paper%, ours%)
    n_records: int
    weibull: WeibullFit

    def report(self) -> str:
        anchor_rows = [(f"{t:.0f} s", paper, round(ours, 1))
                       for t, paper, ours in self.anchors]
        table = format_table(("reading time <", "paper %", "measured %"),
                             anchor_rows,
                             title=f"Fig. 7: reading-time CDF "
                                   f"({self.n_records} pageviews)")
        curve = "  " + "  ".join(f"{v:.0f}s:{100*f:.0f}%"
                                 for v, f in self.grid)
        weibull = (f"Weibull MLE fit: k={self.weibull.shape:.2f}, "
                   f"lambda={self.weibull.scale:.1f}s "
                   f"(k<1 negative aging, as Liu et al. [12] report "
                   f"for web dwell times)")
        return table + "\ncurve: " + curve + "\n" + weibull


def run(trace_config: Optional[TraceConfig] = None) -> Fig07Result:
    """Generate the trace and evaluate its reading-time CDF."""
    dataset = generate_trace(trace_config).filter_reading_time()
    times = dataset.reading_times()
    grid = cdf_points(times, np.arange(0.0, 21.0, 2.0))
    # One sort answers every anchor; bitwise the per-anchor means.
    fractions = threshold_fractions(
        times, [threshold for threshold, _ in PAPER_ANCHORS])
    anchors = [(threshold, paper, ours)
               for (threshold, paper), ours
               in zip(PAPER_ANCHORS, fractions)]
    return Fig07Result(grid=grid, anchors=anchors, n_records=len(dataset),
                       weibull=fit_weibull(times))
