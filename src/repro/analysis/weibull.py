"""Weibull analysis of dwell times.

The paper's reading-time treatment builds on Liu, White & Dumais (SIGIR
2010), who showed web dwell times follow a Weibull distribution with
shape k < 1 ("negative aging": the longer a user has stayed, the less
likely they are to leave soon).  This module fits a two-parameter
Weibull by maximum likelihood so the synthetic trace can be checked
against that stylised fact (Fig. 7's companion analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize, special


@dataclass(frozen=True)
class WeibullFit:
    """MLE fit of a two-parameter Weibull distribution."""

    shape: float  # k
    scale: float  # lambda

    @property
    def mean(self) -> float:
        return float(self.scale * special.gamma(1.0 + 1.0 / self.shape))

    @property
    def median(self) -> float:
        return float(self.scale * np.log(2.0) ** (1.0 / self.shape))



def fit_weibull(samples: Sequence[float]) -> WeibullFit:
    """Maximum-likelihood Weibull fit (location fixed at zero).

    Solves the standard profile-likelihood equation for the shape k,
    then recovers the scale in closed form.  Non-finite, non-positive
    and constant samples raise ``ValueError`` before any solver call.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size < 2:
        raise ValueError("need at least two samples")
    if not np.isfinite(data).all():
        raise ValueError("Weibull samples must be finite")
    if (data <= 0).any():
        raise ValueError("Weibull samples must be positive")
    if data.min() == data.max():
        # Zero spread has no finite MLE: the shape runs off to infinity.
        raise ValueError("Weibull samples must not all be equal")
    log_data = np.log(data)
    mean_log = log_data.mean()

    def profile_equation(k: float) -> float:
        powered = data ** k
        return (powered @ log_data) / powered.sum() - 1.0 / k - mean_log

    # The profile equation is increasing in k; bracket and bisect.
    lo, hi = 1e-3, 1.0
    while profile_equation(hi) < 0 and hi < 1e3:
        hi *= 2.0
    shape = float(optimize.brentq(profile_equation, lo, hi))
    scale = float((np.mean(data ** shape)) ** (1.0 / shape))
    return WeibullFit(shape=shape, scale=scale)
