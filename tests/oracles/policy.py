"""Per-anchor CDF fractions: the loop ``threshold_fractions`` replaced."""

from typing import List, Sequence

import numpy as np


def threshold_fractions(times: np.ndarray,
                        thresholds: Sequence[float]) -> List[float]:
    """``100 * P(time < threshold)`` as one boolean mean per anchor."""
    times = np.asarray(times, dtype=float)
    return [100.0 * float(np.mean(times < threshold))
            for threshold in thresholds]
