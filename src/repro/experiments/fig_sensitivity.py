"""Sensitivity sweep — energy savings under impaired 3G channels.

The paper evaluates on a healthy 2012-era T-Mobile UMTS link (Fig. 4
calibration).  This sweep asks how robust the energy-aware browser's
advantage is when the channel is not healthy: each
:data:`repro.faults.profiles.PROFILES` preset (ideal → suburban →
congested → cell edge) is replayed over both Table 3 benchmark halves
with both engines, under common random numbers — the two engines face
the *same* seeded fades, losses and RIL failures — so the saving deltas
are attributable to the workflow, not to luck.

Per-page seeds derive from the task seed via
:func:`repro.runtime.seeding.spawn_seeds`, so the sweep is byte-identical
across ``--parallel 1`` and ``--parallel N`` and across reruns with the
same root seed.

Expected shape of the result: the saving shrinks as the channel degrades
(impairments stretch the transmission phase both engines share and the
tail energy of failed dormancy eats into the reorganisation's win) but
stays positive — grouping transmissions helps even at the cell edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.core.comparison import EngineComparison, compare_engines, mean
from repro.core.config import ExperimentConfig
from repro.faults.injector import FaultPlan, FaultStats
from repro.faults.profiles import PROFILE_ORDER, get_profile
from repro.runtime.seeding import DEFAULT_ROOT_SEED, spawn_seeds
from repro.webpages.corpus import benchmark_pages

#: Reading period after each load, seconds — past the switching threshold
#: so the Fig. 10 (read-then-click) scenario is what the sweep measures.
SWEEP_READING_TIME = 30.0


@dataclass
class PageSensitivity:
    """One page under one channel profile."""

    page_url: str
    comparison: EngineComparison
    #: Impairments injected across both handsets (original + ours).
    faults: FaultStats

    @property
    def degraded(self) -> bool:
        return (self.comparison.original.load.degraded
                or self.comparison.energy_aware.load.degraded)

    @property
    def transfer_attempts(self) -> int:
        """Transfer attempts across both handsets (original + ours)."""
        return (self.comparison.original.load.transfer_attempts
                + self.comparison.energy_aware.load.transfer_attempts)

    def report_row(self) -> tuple:
        """This page's row of the sensitivity table."""
        original = self.comparison.original
        ours = self.comparison.energy_aware
        return (
            self.page_url,
            round(original.total_energy, 2),
            round(ours.total_energy, 2),
            f"{100 * self.comparison.energy_saving:.1f}%",
            self.transfer_attempts,
            self.faults.transfer_retries,
            len(original.load.failed_objects)
            + len(ours.load.failed_objects),
            len(original.handset.ril.errors) + len(ours.handset.ril.errors),
        )


@dataclass
class SensitivityResult:
    """One profile's sweep over both benchmark halves."""

    profile_name: str
    seed: int
    reading_time: float
    rows: List[PageSensitivity]

    @property
    def mean_energy_saving(self) -> float:
        return mean([r.comparison.energy_saving for r in self.rows])

    @property
    def total_faults(self) -> FaultStats:
        total = FaultStats()
        for row in self.rows:
            total = total.merged(row.faults)
        return total

    def report(self) -> str:
        rows = self.rows
        total = self.total_faults
        table_rows = [row.report_row() for row in rows]
        table_rows.append((
            "MEAN / TOTAL",
            round(mean([r.comparison.original.total_energy
                         for r in rows]), 2),
            round(mean([r.comparison.energy_aware.total_energy
                         for r in rows]), 2),
            f"{100 * self.mean_energy_saving:.1f}%",
            sum(r.transfer_attempts for r in rows),
            total.transfer_retries,
            total.transfers_failed,
            total.ril_drops + total.dormancy_failures,
        ))
        return format_table(
            ("page", "orig J", "ours J", "E save",
             "attempts", "retries", "failed", "ril errs"),
            table_rows,
            title=(f"Sensitivity: {self.profile_name} channel "
                   f"(read {self.reading_time:.0f}s, "
                   f"{total.faults_injected} faults injected)"))


def _sweep_page(page, page_seed: int, profile_name: str,
                reading_time: float,
                config: Optional[ExperimentConfig]) -> PageSensitivity:
    plan = FaultPlan.named(profile_name, seed=page_seed)
    comparison = compare_engines(page, reading_time, config=config,
                                 faults=plan)
    faults = FaultStats()
    for session in (comparison.original, comparison.energy_aware):
        injector = session.handset.injector
        if injector is not None:
            faults = faults.merged(injector.stats)
    return PageSensitivity(page_url=page.url, comparison=comparison,
                           faults=faults)


def run_profile(profile_name: str,
                seed: int = DEFAULT_ROOT_SEED,
                config: Optional[ExperimentConfig] = None,
                reading_time: float = SWEEP_READING_TIME,
                pages: Optional[List] = None) -> SensitivityResult:
    """Sweep one channel profile over both benchmark halves.

    Each page gets its own child seed (positional, from ``seed``), and
    within a page both engines share the plan — common random numbers,
    so the engine comparison is fair under identical channel histories.

    ``pages`` substitutes an explicit page list for the full corpus —
    used by the golden-equivalence tests to sweep a small subset (child
    seeds are positional over whatever list is swept).
    """
    get_profile(profile_name)  # validate the name before any work
    if pages is None:
        pages = benchmark_pages(mobile=True) + benchmark_pages(mobile=False)
    seeds = spawn_seeds(seed, len(pages))
    rows = [_sweep_page(page, page_seed, profile_name, reading_time,
                        config)
            for page, page_seed in zip(pages, seeds)]
    return SensitivityResult(profile_name=profile_name, seed=seed,
                             reading_time=reading_time, rows=rows)


def _make_runner(profile_name: str):
    def runner(seed: int = DEFAULT_ROOT_SEED) -> SensitivityResult:
        return run_profile(profile_name, seed=seed)
    runner.needs_seed = True
    runner.__name__ = f"run_{profile_name}"
    runner.__doc__ = f"Sensitivity sweep under the {profile_name} profile."
    return runner


#: Registry consumed by the parallel runner: one task per channel preset,
#: in severity order.  Runners are seed-aware (``needs_seed``) — the
#: runner hands each its task seed so per-page child seeds derive from it.
SWEEP_TASKS = tuple(
    (name, f"Sensitivity sweep: {name} channel", _make_runner(name))
    for name in PROFILE_ORDER)
