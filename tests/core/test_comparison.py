"""Engine comparisons and the headline paper claims.

These are the reproduction's acceptance tests: the *shape* of the
paper's Figs. 8 and 10 must hold on the default configuration — who
wins, in which direction, by roughly what factor.
"""

import pytest

from repro.core.comparison import compare_engines, mean
from tests.oracles.readouts import final_display_saving, first_display_saving


def test_comparison_runs_both_engines(small_page):
    comparison = compare_engines(small_page)
    assert comparison.original.load.engine_name == "original"
    assert comparison.energy_aware.load.engine_name == "energy-aware"


def test_savings_of_identical_runs_are_zero(small_page):
    comparison = compare_engines(small_page)
    # saving definitions sanity: comparing a run to itself gives zero
    from repro.core.comparison import _saving
    value = comparison.original.load.load_complete_time
    assert _saving(value, value) == 0.0
    assert _saving(0.0, 5.0) == 0.0


def test_fig8_mobile_shape(mobile_comparisons):
    """Mobile benchmark: ~15 % transmission-time saving, total loading
    time roughly unchanged (paper: 2.5 %)."""
    tx = mean([c.tx_time_saving for c in mobile_comparisons])
    load = mean([c.loading_time_saving for c in mobile_comparisons])
    assert 0.08 <= tx <= 0.30
    assert -0.05 <= load <= 0.15
    assert tx > load


def test_fig8_full_shape(full_comparisons):
    """Full benchmark: ~27 % transmission saving, ~17 % loading saving."""
    tx = mean([c.tx_time_saving for c in full_comparisons])
    load = mean([c.loading_time_saving for c in full_comparisons])
    assert 0.18 <= tx <= 0.38
    assert 0.08 <= load <= 0.25
    assert tx > load


def test_fig8_full_savings_exceed_mobile(mobile_comparisons,
                                         full_comparisons):
    assert (mean([c.tx_time_saving for c in full_comparisons])
            > mean([c.tx_time_saving for c in mobile_comparisons]))
    assert (mean([c.loading_time_saving for c in full_comparisons])
            > mean([c.loading_time_saving for c in mobile_comparisons]))


def test_fig10_energy_savings_over_30_percent(mobile_comparisons,
                                              full_comparisons):
    """The abstract's headline: >30 % energy saving during browsing."""
    overall = mean([c.energy_saving
                    for c in mobile_comparisons + full_comparisons])
    assert overall > 0.30


def test_fig10_every_page_saves_energy(mobile_comparisons,
                                       full_comparisons):
    for comparison in mobile_comparisons + full_comparisons:
        assert comparison.energy_saving > 0.10


def test_energy_aware_never_slower_on_tx(mobile_comparisons,
                                         full_comparisons):
    for comparison in mobile_comparisons + full_comparisons:
        assert comparison.tx_time_saving > 0


def test_fig14_display_savings(full_comparisons):
    first = mean([first_display_saving(c) for c in full_comparisons])
    final = mean([final_display_saving(c) for c in full_comparisons])
    assert first > 0.30   # paper: 45.5 %
    assert 0.05 <= final <= 0.30  # paper: 16.8 %
    assert first > final
