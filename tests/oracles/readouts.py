"""Read-outs that only tests take off ``src/`` result objects.

Each helper derives one number from state the program keeps anyway —
an RRC machine's segments, a DOM tree's nodes, a GBRT model's trees, a
comparison's two page loads — that no code path in ``src/`` consumes.
They live here so the program keeps one path per behaviour, and the
tests that check the program through them keep checking it.
"""

from typing import List, Optional

import numpy as np

from repro.analysis.weibull import WeibullFit
from repro.browser.dom import DomTree
from repro.browser.engine import PageLoadResult
from repro.core.comparison import EngineComparison
from repro.faults.recovery import RecoveryPolicy
from repro.ml.gbrt import GradientBoostedRegressor
from repro.rrc.config import PowerProfile
from repro.rrc.machine import RrcMachine
from repro.rrc.states import RadioMode, RrcState


# -- RRC machine --------------------------------------------------------

def time_in_mode(machine: RrcMachine, mode: RadioMode) -> float:
    """Total finalized seconds spent in ``mode``."""
    return sum(s.duration for s in machine.segments if s.mode is mode)


def time_in_state(machine: RrcMachine, state: RrcState) -> float:
    """Total finalized seconds in a protocol state (promotions count
    toward their destination state)."""
    return sum(s.duration for s in machine.segments
               if s.mode.state is state)


def extra_energy(machine: RrcMachine) -> float:
    """Discrete signalling energy charged so far (joules)."""
    return sum(joules for _, joules in machine.extra_energy_events)


def radio_energy(machine: RrcMachine,
                 power: Optional[PowerProfile] = None) -> float:
    """Radio energy (joules) integrated over the finalized segments,
    plus the discrete promotion signalling energy."""
    profile = power or machine.config.power
    area = sum(profile.for_mode(s.mode) * s.duration
               for s in machine.segments)
    return area + extra_energy(machine)


# -- browser ------------------------------------------------------------

def max_depth(tree: DomTree) -> int:
    """Depth of the deepest node, by a walk down from the root."""
    deepest, stack = 0, [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children)
    return deepest


def layout_compute_share(load: PageLoadResult) -> float:
    """Fraction of processing time spent on layout computation (the
    paper cites 40–70 % for original browsers)."""
    total = load.tx_compute_time + load.layout_compute_time
    return 0.0 if total == 0 else load.layout_compute_time / total


def _saving(original: float, ours: float) -> float:
    return 0.0 if original == 0 else (original - ours) / original


def first_display_saving(comparison: EngineComparison) -> float:
    """Relative reduction of the first (intermediate) display time;
    0 when either engine drew none (Fig. 14)."""
    ours = comparison.energy_aware.load.first_display_time
    orig = comparison.original.load.first_display_time
    if ours is None or orig is None:
        return 0.0
    return _saving(orig, ours)


def final_display_saving(comparison: EngineComparison) -> float:
    """Relative reduction of the final display time (Fig. 14)."""
    return _saving(comparison.original.load.final_display_time,
                   comparison.energy_aware.load.final_display_time)


# -- faults, analysis, ml -------------------------------------------------

def worst_case_delay(policy: RecoveryPolicy) -> float:
    """Upper bound on the time a transfer can burn before giving up:
    every attempt's timeout plus every backoff between attempts."""
    backoffs = sum(policy.backoff(i)
                   for i in range(1, policy.max_attempts))
    return policy.timeout * policy.max_attempts + backoffs


def weibull_cdf(fit: WeibullFit, value: float) -> float:
    """P(X <= value) under the fitted Weibull."""
    if value <= 0:
        return 0.0
    return float(1.0 - np.exp(-(value / fit.scale) ** fit.shape))


def staged_predict(model: GradientBoostedRegressor,
                   x: np.ndarray) -> List[np.ndarray]:
    """Predictions after each boosting round, summed tree by tree."""
    stages = [np.full(x.shape[0], model.init_, dtype=float)]
    for tree in model.trees_:
        stages.append(stages[-1] + model.learning_rate * tree.predict(x))
    return stages[1:]
