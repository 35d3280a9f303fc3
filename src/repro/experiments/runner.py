"""Run every reproduced table and figure and render the full record.

``python -m repro.experiments.runner`` prints each experiment's report;
``tests/experiments/`` checks the same entry points against the
paper's shapes.  ``--parallel N`` delegates to the process-pool runner
in :mod:`repro.runtime.parallel` (the ``repro experiments`` subcommand
exposes the full option set: caching, report export, seeding).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments import (
    fig01_power_states,
    fig03_intuitive_switching,
    fig04_traffic_load,
    fig07_reading_cdf,
    fig08_transmission_time,
    fig09_power_trace,
    fig10_power_consumption,
    fig11_capacity,
    fig12_13_display_snapshots,
    fig14_display_time,
    fig15_prediction_accuracy,
    fig16_six_cases,
    table04_correlation,
    table05_state_power,
    table07_prediction_cost,
)

#: (experiment id, title, zero-argument runner) for the whole evaluation.
ALL_EXPERIMENTS: Tuple[Tuple[str, str, Callable], ...] = (
    ("fig01", "Power level per RRC state", fig01_power_states.run),
    ("fig03", "Intuitive immediate-IDLE switching",
     fig03_intuitive_switching.run),
    ("fig04", "Traffic load: browsing vs bulk", fig04_traffic_load.run),
    ("fig07", "Reading-time CDF", fig07_reading_cdf.run),
    ("fig08", "Data transmission time", fig08_transmission_time.run),
    ("fig09", "Power trace, espn sports", fig09_power_trace.run),
    ("fig10", "Energy with 20 s reading", fig10_power_consumption.run),
    ("fig11", "Network capacity", fig11_capacity.run),
    ("fig12_13", "Display snapshots timing",
     fig12_13_display_snapshots.run),
    ("fig14", "Average screen display time", fig14_display_time.run),
    ("fig15", "Prediction accuracy", fig15_prediction_accuracy.run),
    ("fig16", "Six switching policies", fig16_six_cases.run),
    ("table04", "Feature/reading-time correlation",
     table04_correlation.run),
    ("table05", "Power per state", table05_state_power.run),
    ("table07", "Prediction cost", table07_prediction_cost.run),
)


@dataclass
class SuiteRun:
    reports: Dict[str, str]

    def render(self) -> str:
        blocks: List[str] = []
        for experiment_id, title, _ in ALL_EXPERIMENTS:
            if experiment_id not in self.reports:
                continue
            blocks.append(f"== {experiment_id}: {title} ==")
            blocks.append(self.reports[experiment_id])
            blocks.append("")
        return "\n".join(blocks)


def run_all(only: Tuple[str, ...] = ()) -> SuiteRun:
    """Execute all (or selected) experiments; returns rendered reports."""
    reports: Dict[str, str] = {}
    for experiment_id, _, runner in ALL_EXPERIMENTS:
        if only and experiment_id not in only:
            continue
        reports[experiment_id] = runner().report()
    return SuiteRun(reports=reports)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="regenerate the paper's tables and figures")
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, sequential)")
    args = parser.parse_args(argv[1:])
    only = tuple(args.ids)
    if args.parallel > 1:
        # Imported here: repro.runtime.parallel imports this module.
        from repro.runtime.parallel import run_experiments

        suite = run_experiments(only or None, processes=args.parallel)
        print(suite.render())
        print(suite.render_summary())
        return 0
    suite = run_all(only=only)
    for experiment_id, title, _ in ALL_EXPERIMENTS:
        if experiment_id in suite.reports:
            print(f"== {experiment_id}: {title} ==")
            print(suite.reports[experiment_id])
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
