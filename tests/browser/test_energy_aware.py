"""Energy-aware engine behaviour (Sections 4.1-4.2)."""

import pytest

from repro.browser.energy_aware import EnergyAwareEngine
from repro.browser.original import OriginalEngine
from repro.rrc.ril import RilMessageType
from repro.rrc.states import RrcState
from repro.webpages.objects import ObjectKind

from tests.browser.engine_helpers import run_engine
from tests.oracles.readouts import ril_total_latency


def test_downloads_every_object(full_page):
    _, _, result = run_engine(full_page, EnergyAwareEngine)
    assert result.object_count == full_page.object_count
    assert result.bytes_downloaded == pytest.approx(full_page.total_bytes)


def test_phases_are_strictly_separated(full_page):
    """No transmission may complete after the transmission phase ends —
    the whole point of the reorganisation."""
    _, _, result = run_engine(full_page, EnergyAwareEngine)
    last_byte = max(t.completed_at - result.started_at
                    for t in result.transfers)
    assert last_byte <= result.data_transmission_time + 1e-9
    assert result.load_complete_time > result.data_transmission_time


def test_no_reflow_or_redraw_ever(full_page):
    _, _, result = run_engine(full_page, EnergyAwareEngine)
    assert result.reflow_count == 0
    assert result.redraw_count == 0


def test_channel_released_at_tx_end(full_page):
    handset, _, result = run_engine(full_page, EnergyAwareEngine)
    releases = [m for m in handset.ril.log
                if m.message_type is RilMessageType.RELEASE_CHANNELS]
    assert len(releases) == 1
    assert releases[0].reply == "OK"
    assert releases[0].sent_at - result.started_at == pytest.approx(
        result.data_transmission_time)


def test_radio_in_low_power_during_layout(full_page):
    """After the channel release, the layout phase runs at FACH or
    below — the radio never returns to DCH."""
    handset, _, result = run_engine(full_page, EnergyAwareEngine)
    handset.machine.finalize()
    release_at = result.started_at + result.data_transmission_time + \
        ril_total_latency(handset.ril)
    for segment in handset.machine.segments:
        if segment.start >= release_at + 1e-9:
            assert segment.mode.state is not RrcState.DCH


def test_fetches_grouped_early(full_page):
    """Statically referenced objects are all requested right after the
    root scan — before the root is even fully parsed."""
    _, _, result = run_engine(full_page, EnergyAwareEngine)
    transfers = {t.label: t for t in result.transfers}
    root_arrival = transfers[full_page.root_id].completed_at
    scan_budget = 1.0  # scan is cheap; requests follow within ~a second
    for ref in full_page.root.static_references:
        assert transfers[ref].requested_at <= root_arrival + scan_budget


def test_tx_phase_shorter_than_original_load(full_page):
    _, _, ours = run_engine(full_page, EnergyAwareEngine)
    _, _, orig = run_engine(full_page, OriginalEngine)
    assert ours.data_transmission_time < orig.data_transmission_time


def test_intermediate_display_on_full_pages_only(full_page, small_page):
    _, _, full_result = run_engine(full_page, EnergyAwareEngine)
    assert full_result.first_display_time is not None
    _, _, mobile_result = run_engine(small_page, EnergyAwareEngine)
    assert mobile_result.first_display_time is None


def test_intermediate_display_is_early(full_page):
    """The simplified display needs no CSS — it appears well before the
    transmission phase ends (Fig. 12: 7 s vs a ~25 s tx phase)."""
    _, _, result = run_engine(full_page, EnergyAwareEngine)
    assert result.first_display_time < 0.5 * result.data_transmission_time


def test_media_decoded_only_in_layout_phase(full_page):
    handset, engine, result = run_engine(full_page, EnergyAwareEngine)
    decode_intervals = [iv for iv in handset.cpu.intervals
                        if iv.name.startswith("decode[")]
    n_media = (full_page.count_of_kind(ObjectKind.IMAGE)
               + full_page.count_of_kind(ObjectKind.FLASH))
    assert len(decode_intervals) == n_media
    tx_end = result.started_at + result.data_transmission_time
    for interval in decode_intervals:
        assert interval.start >= tx_end - 1e-9


def test_same_final_dom_as_original(full_page):
    _, _, ours = run_engine(full_page, EnergyAwareEngine)
    _, _, orig = run_engine(full_page, OriginalEngine)
    assert ours.dom_nodes == orig.dom_nodes


def test_css_never_parsed_during_tx_phase(full_page):
    handset, _, result = run_engine(full_page, EnergyAwareEngine)
    tx_end = result.started_at + result.data_transmission_time
    for interval in handset.cpu.intervals:
        if interval.name.startswith("parse_css"):
            assert interval.start >= tx_end - 1e-9


def test_dormancy_disabled_keeps_dch_tail(full_page):
    from dataclasses import replace
    from repro.browser.config import BrowserConfig
    from repro.core.config import ExperimentConfig
    config = replace(ExperimentConfig(),
                     browser=BrowserConfig(dormancy_after_tx=False))
    handset, _, result = run_engine(full_page, EnergyAwareEngine, config)
    assert not any(m.message_type is RilMessageType.RELEASE_CHANNELS
                   for m in handset.ril.log)
