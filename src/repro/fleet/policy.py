"""Algorithm 2's switching rule over whole vectors, and CDF anchors.

Algorithm 2's rule is a pure threshold comparison on the reading time,

    switch  ⇔  Tr > Td  OR  (mode == power AND Tr > Tp),

so a whole vector of reading times resolves in two array comparisons.
:func:`switch_decisions` is the rule's one implementation: every
policy in :mod:`repro.prediction.policy` (one pageview or the whole
Table-6 evaluation set) and the ablation objective call it.  The scalar
rule lives on as a test oracle in ``tests/oracles/policy.py``.

This module deliberately knows nothing about policies, predictors, or
configs — it takes plain arrays and floats, so the policies can depend
on it without an import cycle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.runtime.observability import KERNEL_STATS


def switch_decisions(predicted: np.ndarray, mode: str,
                     power_threshold: float,
                     delay_threshold: float) -> np.ndarray:
    """Vectorised Algorithm 2 over a vector of reading times.

    Returns a boolean array: ``True`` where the radio should be forced
    to IDLE.
    """
    predicted = np.asarray(predicted, dtype=float)
    switch = predicted > delay_threshold
    if mode == "power":
        switch = switch | (predicted > power_threshold)
    KERNEL_STATS.add(work_units=predicted.size)
    return switch


def threshold_fractions(times: np.ndarray,
                        thresholds: Sequence[float]) -> "list[float]":
    """CDF percentages ``100 * P(time < threshold)`` for many thresholds.

    One sort of ``times`` answers every anchor via binary search; the
    returned floats are bitwise those of the per-anchor
    ``100.0 * float(np.mean(times < threshold))`` — ``np.mean`` over a
    boolean mask is the exact integer count (far below 2**53) divided
    by the exact size, and ``searchsorted(side='left')`` on the sorted
    array produces the same count.
    """
    times = np.asarray(times, dtype=float)
    counts = np.searchsorted(np.sort(times),
                             np.asarray(thresholds, dtype=float),
                             side="left")
    size = times.size
    KERNEL_STATS.add(work_units=size + len(thresholds))
    return [100.0 * (int(count) / size) for count in counts]
