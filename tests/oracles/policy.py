"""Scalar twins of the Algorithm-2 fleet paths.

``switch`` is the rule as Sec. 4.2 writes it, one pageview at a time;
``switch_decisions`` and ``predict_rows`` apply it (and the on-phone
tree traversal) row by row; ``threshold_fractions`` is the per-anchor
loop the sorted search replaced.
"""

from typing import List, Sequence

import numpy as np


def switch(reading: float, mode: str, power_threshold: float,
           delay_threshold: float) -> bool:
    """Algorithm 2: ``Tr > Td or (mode == power and Tr > Tp)``."""
    return reading > delay_threshold or (mode == "power"
                                         and reading > power_threshold)


def switch_decisions(predicted, mode: str, power_threshold: float,
                     delay_threshold: float) -> np.ndarray:
    """:func:`switch` element by element."""
    return np.array([switch(float(reading), mode, power_threshold,
                            delay_threshold)
                     for reading in np.asarray(predicted, dtype=float)],
                    dtype=bool)


def predict_rows(predictor, x) -> np.ndarray:
    """``ReadingTimePredictor.predict`` as one traversal per row."""
    return np.array([predictor.predict_one(row)
                     for row in np.asarray(x, dtype=float)])


def threshold_fractions(times: np.ndarray,
                        thresholds: Sequence[float]) -> List[float]:
    """``100 * P(time < threshold)`` as one boolean mean per anchor."""
    times = np.asarray(times, dtype=float)
    return [100.0 * float(np.mean(times < threshold))
            for threshold in thresholds]
