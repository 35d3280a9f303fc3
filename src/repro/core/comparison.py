"""Original vs. energy-aware comparisons (the paper's main measurements).

Each comparison loads the same page with both engines on separate fresh
handsets and derives the quantities the evaluation section plots: data
transmission time (Fig. 8), loading time, display times (Figs. 12–14),
and energy with a reading period (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.browser.energy_aware import EnergyAwareEngine
from repro.browser.original import OriginalEngine
from repro.core.config import ExperimentConfig
from repro.core.session import SessionResult, browse_and_read
from repro.faults.injector import FaultPlan
from repro.runtime.singleflight import SingleFlight
from repro.webpages.corpus import benchmark_pages
from repro.webpages.page import Webpage


def _saving(original: float, ours: float) -> float:
    """Fractional saving of ``ours`` relative to ``original``."""
    if original == 0:
        return 0.0
    return (original - ours) / original


@dataclass
class EngineComparison:
    """Both engines on one page, plus derived savings."""

    page: Webpage
    original: SessionResult
    energy_aware: SessionResult

    # -- times (Fig. 8) -------------------------------------------------
    @property
    def tx_time_saving(self) -> float:
        """Relative reduction in data transmission time."""
        return _saving(self.original.load.data_transmission_time,
                       self.energy_aware.load.data_transmission_time)

    @property
    def loading_time_saving(self) -> float:
        """Relative reduction in total webpage loading time."""
        return _saving(self.original.load.load_complete_time,
                       self.energy_aware.load.load_complete_time)

    # -- energy (Fig. 10) -----------------------------------------------
    @property
    def energy_saving(self) -> float:
        """Relative reduction in total energy (load + reading period)."""
        return _saving(self.original.total_energy,
                       self.energy_aware.total_energy)



def compare_engines(page: Webpage, reading_time: float = 0.0,
                    config: Optional[ExperimentConfig] = None,
                    faults: Optional[FaultPlan] = None,
                    ) -> EngineComparison:
    """Load ``page`` with both engines on fresh handsets.

    The original browser lets its timers run; the energy-aware browser
    additionally switches to IDLE when the page opens — the paper's
    Fig. 10 scenario, where the reading period exceeds the switching
    threshold.

    With a ``faults`` plan, both handsets draw their impairments from
    the *same* seeded plan (common random numbers), so the engines face
    identical channel conditions and the comparison stays fair.
    """
    original = browse_and_read(page, OriginalEngine, reading_time,
                               config=config, faults=faults)
    energy_aware = browse_and_read(page, EnergyAwareEngine, reading_time,
                                   config=config, idle_at_open=True,
                                   faults=faults)
    return EngineComparison(page=page, original=original,
                            energy_aware=energy_aware)


#: Process-local memo for fault-free benchmark sweeps.  Several
#: experiments (fig08, fig11, fig14, table07, ...) and every capacity
#: grid point start from the identical corpus-wide comparison; it is
#: deterministic given (mobile, reading_time, config) — fresh handsets,
#: no fault plan, no global RNG — so one process computes it once.
#: Single-flight because the serving layer hits it from many request
#: threads: concurrent misses on one key must share one computation.
_BENCHMARK_MEMO = SingleFlight()


def benchmark_comparison(mobile: bool, reading_time: float = 0.0,
                         config: Optional[ExperimentConfig] = None,
                         ) -> List[EngineComparison]:
    """Compare engines across one Table 3 benchmark half (memoised)."""
    key = (mobile, reading_time, config)
    hit = _BENCHMARK_MEMO.do(key, lambda: [
        compare_engines(page, reading_time, config)
        for page in benchmark_pages(mobile=mobile)])
    return list(hit)


def benchmark_cache_stats() -> Dict[str, int]:
    """Hit/miss/wait counters for the benchmark-comparison memo."""
    return _BENCHMARK_MEMO.stats()


def mean(values: List[float]) -> float:
    """Arithmetic mean (0.0 for an empty list)."""
    if not values:
        return 0.0
    return sum(values) / len(values)
