"""The table of every reproduced table and figure.

:data:`ALL_EXPERIMENTS` is the registry ``repro experiments`` runs
(through :func:`repro.runtime.parallel.run_tasks`);
``tests/experiments/`` checks the same entry points against the
paper's shapes.  ``python -m repro.experiments.runner [ids...]`` is
kept as a shorthand for ``python -m repro experiments [ids...]`` and
takes the same options.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Tuple

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


def main(argv: List[str]) -> int:
    # Imported here so that importing the experiment table does not
    # load the whole CLI.
    from repro.cli import main as cli_main

    return cli_main(["experiments", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
