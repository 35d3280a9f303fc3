"""Weibull dwell-time analysis."""

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.analysis.weibull import fit_weibull
from tests.oracles.readouts import weibull_cdf


def test_recovers_known_parameters():
    data = stats.weibull_min.rvs(0.8, scale=10.0, size=4000,
                                 random_state=7)
    fit = fit_weibull(data)
    assert fit.shape == pytest.approx(0.8, rel=0.05)
    assert fit.scale == pytest.approx(10.0, rel=0.05)


def test_exponential_special_case():
    data = np.random.default_rng(0).exponential(5.0, size=4000)
    fit = fit_weibull(data)
    assert fit.shape == pytest.approx(1.0, rel=0.05)
    assert fit.scale == pytest.approx(5.0, rel=0.1)


def test_derived_statistics():
    data = stats.weibull_min.rvs(1.5, scale=8.0, size=4000,
                                 random_state=3)
    fit = fit_weibull(data)
    assert fit.mean == pytest.approx(float(data.mean()), rel=0.05)
    assert fit.median == pytest.approx(float(np.median(data)), rel=0.05)
    assert fit.shape >= 1.0  # no negative aging
    assert weibull_cdf(fit, fit.median) == pytest.approx(0.5, abs=0.01)
    assert weibull_cdf(fit, -1.0) == 0.0


def test_trace_dwell_times_show_negative_aging(default_trace):
    """The stylised fact from Liu et al. that the paper builds on:
    dwell-time Weibull shape < 1."""
    fit = fit_weibull(default_trace.reading_times())
    assert 0.3 < fit.shape < 0.9  # < 1: negative aging


def test_validation():
    with pytest.raises(ValueError):
        fit_weibull([1.0])
    with pytest.raises(ValueError):
        fit_weibull([1.0, -2.0])
    # Degenerate samples fail up front with one line: no overflow
    # warning and no solver error on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must not all be equal"):
            fit_weibull([5.0, 5.0, 5.0])
        with pytest.raises(ValueError, match="must be finite"):
            fit_weibull([1.0, float("nan"), 3.0])
        with pytest.raises(ValueError, match="must be finite"):
            fit_weibull([1.0, float("inf")])
