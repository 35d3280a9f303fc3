"""Ablation studies: each must demonstrate its design argument."""

import pytest

from repro.experiments import ablations
from repro.traces.generator import TraceConfig


SMALL = TraceConfig(n_users=14, mean_views_per_user=110, catalog_size=40,
                    seed=31)


@pytest.fixture(scope="module")
def reorganisation():
    return ablations.reorganisation_ablation()


def test_reorganisation_alone_captures_most_of_the_saving(reorganisation):
    """Grouping transmissions is the big lever; the channel release adds
    a smaller layout-phase saving on top."""
    original = reorganisation.row("original")
    no_release = reorganisation.row("reorganised, no release")
    full = reorganisation.row("energy-aware (full)")
    saving_reorg = original.loading_energy - no_release.loading_energy
    saving_release = no_release.loading_energy - full.loading_energy
    assert saving_reorg > saving_release > 0


def test_reorganisation_shrinks_tx_time(reorganisation):
    assert reorganisation.row("energy-aware (full)").tx_time \
        < reorganisation.row("original").tx_time


def test_intermediate_display_costs_little(reorganisation):
    with_display = reorganisation.row("energy-aware (full)")
    without = reorganisation.row("reorganised, no intermediate display")
    assert abs(with_display.loading_energy - without.loading_energy) < 1.0
    assert with_display.load_time - without.load_time < 0.5


def test_timer_ablation_shows_the_tradeoff():
    result = ablations.timer_ablation()
    # Longest timers: most energy, no promotion penalty at the click.
    assert result.rows[-1].total_energy == max(r.total_energy
                                               for r in result.rows)
    assert result.rows[-1].next_click_delay < result.rows[0].next_click_delay
    # Shortest timers: the click promotes from IDLE.
    assert result.rows[0].next_click_delay == pytest.approx(2.0)


def test_predictor_ablation_trees_beat_linear():
    result = ablations.predictor_ablation(SMALL)
    linear_tp = result.accuracy("linear (ridge)", 9.0)
    for budget in (25, 100):
        assert result.accuracy(f"GBRT M={budget}", 9.0) > linear_tp
    assert "linear" in result.report()


def test_predictor_ablation_gbrt_clears_linear_on_default_trace():
    result = ablations.predictor_ablation()
    assert result.accuracy("GBRT M=100", 9.0) \
        > result.accuracy("linear (ridge)", 9.0) + 0.05


def test_alpha_ablation_tradeoff():
    result = ablations.interest_threshold_ablation(SMALL)
    coverages = [row.coverage for row in result.rows]
    assert coverages[0] == 1.0
    assert coverages == sorted(coverages, reverse=True)
    # Accuracy at a generous alpha beats no-threshold accuracy.
    assert result.rows[-1].accuracy_tp > result.rows[0].accuracy_tp


def test_carrier_ablation_savings_persist():
    result = ablations.carrier_ablation(reading_time=20.0)
    assert len(result.rows) == 4
    for row in result.rows:
        assert row.energy_saving > 0.15
    named = {row.carrier: row for row in result.rows}
    # Aggressive timers shrink the saving (the original browser already
    # idles quickly); conservative timers grow it.
    assert named["aggressive"].energy_saving \
        < named["conservative"].energy_saving
