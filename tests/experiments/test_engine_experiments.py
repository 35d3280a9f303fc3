"""Engine-driven experiments (Figs. 8-10, 12-14): paper-shape checks."""

import pytest

from repro.experiments import (
    fig08_transmission_time,
    fig09_power_trace,
    fig10_power_consumption,
    fig12_13_display_snapshots,
    fig14_display_time,
)


@pytest.fixture(scope="module")
def fig08():
    return fig08_transmission_time.run()


@pytest.fixture(scope="module")
def fig10():
    return fig10_power_consumption.run()


def test_fig08_groups_cover_both_benchmarks_and_pages(fig08):
    labels = {group.label for group in fig08.groups}
    assert labels == {"mobile", "full", "cnn", "www.motors.ebay.com"}


def test_fig08_savings_in_band(fig08):
    by_label = {g.label: g for g in fig08.groups}
    assert 0.08 <= by_label["mobile"].tx_saving <= 0.30
    assert 0.18 <= by_label["full"].tx_saving <= 0.38
    assert by_label["full"].loading_saving >= 0.08
    assert by_label["www.motors.ebay.com"].tx_saving \
        > by_label["cnn"].tx_saving


def test_fig08_full_saves_more_tx_time_than_mobile(fig08):
    by_label = {g.label: g for g in fig08.groups}
    assert by_label["full"].tx_saving > by_label["mobile"].tx_saving > 0


def test_fig08_layout_phase_is_short(fig08):
    """Paper: the energy-aware layout phase is a small tail of the load,
    not another loading."""
    for group in fig08.groups:
        assert group.energy_aware_layout < 0.35 * group.energy_aware_tx


def test_fig09_energy_aware_finishes_tx_earlier():
    result = fig09_power_trace.run()
    assert result.energy_aware.tx_complete < result.original.tx_complete
    assert result.energy_aware.mean_power < result.original.mean_power


def test_fig09_energy_aware_trace_ends_at_idle_power():
    result = fig09_power_trace.run()
    tail = result.energy_aware.trace.samples[-8:]
    assert all(s.watts == pytest.approx(0.15) for s in tail)


def test_fig10_savings(fig10):
    by_label = {bar.label: bar for bar in fig10.bars}
    assert by_label["mobile"].saving > 0.30
    assert by_label["full"].saving > 0.18
    # espn saves more than the mobile cnn page in absolute joules
    espn = by_label["espn.go.com/sports"]
    cnn = by_label["cnn"]
    espn_delta = (espn.original_open + espn.original_read
                  - espn.energy_aware_open - espn.energy_aware_read)
    cnn_delta = (cnn.original_open + cnn.original_read
                 - cnn.energy_aware_open - cnn.energy_aware_read)
    assert espn_delta > cnn_delta


def test_fig10_mean_saving_above_a_quarter(fig10):
    savings = [bar.saving for bar in fig10.bars]
    assert sum(savings) / len(savings) > 0.25


def test_fig10_reading_energy_is_idle_for_ours(fig10):
    for bar in fig10.bars:
        assert bar.energy_aware_read == pytest.approx(20 * 0.15, rel=0.05)
        assert bar.original_read > bar.energy_aware_read


def test_fig12_13_leads():
    result = fig12_13_display_snapshots.run()
    assert result.first_display_lead > 5.0   # paper: 10.6 s
    assert result.final_display_lead > 1.0   # paper: 5.9 s
    assert result.energy_aware_first < result.original_first
    assert result.energy_aware_final < result.original_final


def test_fig14_full_version_savings():
    result = fig14_display_time.run()
    rows = {row.label: row for row in result.rows}
    assert rows["full"].first_saving > 0.30
    assert 0.05 <= rows["full"].final_saving <= 0.30
    # Mobile: no intermediate display in our engine...
    assert rows["mobile"].ours_first is None
    # ...and its final display lands near the original's intermediate.
    assert rows["mobile"].ours_final == pytest.approx(
        rows["mobile"].original_first, rel=0.45)
