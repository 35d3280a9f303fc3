"""Original (stock) engine behaviour."""

import pytest

from repro.browser.original import OriginalEngine
from repro.webpages.objects import ObjectKind

from tests.browser.engine_helpers import run_engine
from tests.oracles.readouts import layout_compute_share


def test_downloads_every_object(small_page):
    _, _, result = run_engine(small_page, OriginalEngine)
    assert result.object_count == small_page.object_count
    assert result.bytes_downloaded == pytest.approx(small_page.total_bytes)


def test_tx_time_equals_loading_time(small_page):
    """Paper Section 5.2: the original browser's data transmission time
    is defined as its loading time."""
    _, _, result = run_engine(small_page, OriginalEngine)
    assert result.data_transmission_time == result.load_complete_time
    assert result.layout_phase_time == 0.0


def test_builds_full_dom(full_page):
    _, engine, result = run_engine(full_page, OriginalEngine)
    assert result.dom_nodes == full_page.total_dom_nodes + 1  # + document


def test_reflows_and_redraws_happen(full_page):
    _, _, result = run_engine(full_page, OriginalEngine)
    assert result.reflow_count > 0
    assert result.redraw_count > 0
    assert result.reflow_time > 0
    assert result.redraw_time > 0


def test_layout_share_in_papers_band(full_comparisons):
    """[7] via the paper: layout computation is 40-70 % of the original
    browser's processing time on full-version pages."""
    shares = [layout_compute_share(c.original.load)
              for c in full_comparisons]
    assert all(0.25 <= share <= 0.80 for share in shares)
    assert 0.35 <= sum(shares) / len(shares) <= 0.70


def test_final_display_is_last_event(small_page):
    _, _, result = run_engine(small_page, OriginalEngine)
    assert result.display_events[-1].kind == "final"
    assert result.final_display_time == pytest.approx(
        result.load_complete_time)


def test_first_display_waits_for_css_and_content(full_page):
    _, engine, result = run_engine(full_page, OriginalEngine)
    assert result.first_display_time is not None
    # Cannot paint before the first stylesheet has arrived and parsed.
    css_arrival = min(t.completed_at - result.started_at
                      for t in result.transfers
                      if full_page.objects[t.label].kind is ObjectKind.CSS)
    assert result.first_display_time > css_arrival
    # And not before a substantial share of objects was processed.
    fraction = OriginalEngine.FIRST_PAINT_FRACTION
    assert result.first_display_time >= fraction * 0.5 \
        * result.load_complete_time


def test_transmissions_spread_across_load(full_page):
    """The spread that keeps the radio lit: the last transfer completes
    in the final third of the load (Fig. 4 behaviour)."""
    _, _, result = run_engine(full_page, OriginalEngine)
    last_byte = max(t.completed_at - result.started_at
                    for t in result.transfers)
    assert last_byte > 0.60 * result.load_complete_time


def test_dynamic_refs_fetched_after_script_execution(small_page):
    _, _, result = run_engine(small_page, OriginalEngine)
    script = next(o for o in small_page.objects.values()
                  if o.kind is ObjectKind.JS)
    assert script.dynamic_references, "fixture needs a dynamic ref"
    transfers = {t.label: t for t in result.transfers}
    js_done = transfers[script.object_id].completed_at
    for ref in script.dynamic_references:
        assert transfers[ref].requested_at > js_done


def test_engine_is_single_use(small_page):
    handset, engine, _ = run_engine(small_page, OriginalEngine)
    with pytest.raises(RuntimeError, match="single-use"):
        engine.load(lambda result: None)


def test_no_duplicate_fetches(full_page):
    _, _, result = run_engine(full_page, OriginalEngine)
    labels = [t.label for t in result.transfers]
    assert len(labels) == len(set(labels))
