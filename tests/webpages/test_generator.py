"""Synthetic page generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webpages.generator import PageSpec, generate_page
from repro.webpages.objects import ObjectKind
from tests.oracles.readouts import approx_total_kb


def base_spec(**overrides):
    kwargs = dict(name="p", url="http://p", mobile=False, seed=1,
                  html_kb=50, css_count=2, css_kb=10, js_count=3,
                  js_kb=15, image_count=10, image_kb=8, flash_count=1,
                  flash_kb=40, iframe_count=1, iframe_kb=8)
    kwargs.update(overrides)
    return PageSpec(**kwargs)


def test_generation_is_deterministic():
    a = generate_page(base_spec())
    b = generate_page(base_spec())
    assert a.objects.keys() == b.objects.keys()
    for oid in a.objects:
        assert a.objects[oid].size_bytes == b.objects[oid].size_bytes


def test_different_seeds_differ():
    a = generate_page(base_spec(seed=1))
    b = generate_page(base_spec(seed=2))
    sizes_a = sorted(o.size_bytes for o in a.objects.values())
    sizes_b = sorted(o.size_bytes for o in b.objects.values())
    assert sizes_a != sizes_b


def test_object_counts_match_spec():
    spec = base_spec()
    page = generate_page(spec)
    assert page.count_of_kind(ObjectKind.CSS) == spec.css_count
    assert page.count_of_kind(ObjectKind.JS) == spec.js_count
    assert page.count_of_kind(ObjectKind.IMAGE) == spec.image_count
    assert page.count_of_kind(ObjectKind.FLASH) == spec.flash_count
    # root + iframes
    assert page.count_of_kind(ObjectKind.HTML) == 1 + spec.iframe_count


def test_total_size_tracks_spec_estimate():
    spec = base_spec(seed=3)
    page = generate_page(spec)
    assert page.total_kb == pytest.approx(approx_total_kb(spec), rel=0.5)


def test_dynamic_images_only_via_scripts():
    spec = base_spec(js_dynamic_image_fraction=0.5)
    page = generate_page(spec)
    dynamic = {ref for obj in page.objects.values()
               for ref in obj.dynamic_references
               if page.objects[ref].kind is ObjectKind.IMAGE}
    static = {ref for obj in page.objects.values()
              for ref in obj.static_references}
    assert dynamic, "expected some dynamically discovered images"
    assert not dynamic & static


def test_no_dynamic_images_without_scripts():
    page = generate_page(base_spec(js_count=0,
                                   js_dynamic_image_fraction=0.9))
    for obj in page.objects.values():
        assert not obj.dynamic_references


def test_js_chain_hides_back_half_from_root():
    spec = base_spec(js_count=4, js_chain=True)
    page = generate_page(spec)
    root_js = [r for r in page.root.static_references
               if page.objects[r].kind is ObjectKind.JS]
    assert len(root_js) == 2
    # The chain is connected: every script is still reachable.
    kinds = [page.objects[oid].kind for oid in page.reachable_ids()]
    assert kinds.count(ObjectKind.JS) == 4


def test_js_chain_links_are_dynamic_js_references():
    page = generate_page(base_spec(js_count=4, js_chain=True))
    chained = [ref for obj in page.objects.values()
               if obj.kind is ObjectKind.JS
               for ref in obj.dynamic_references
               if page.objects[ref].kind is ObjectKind.JS]
    assert len(chained) == 2  # scripts 1→2 and 2→3


def test_spec_validation():
    with pytest.raises(ValueError):
        base_spec(html_kb=0)
    with pytest.raises(ValueError):
        base_spec(image_count=-1)
    with pytest.raises(ValueError):
        base_spec(js_dynamic_image_fraction=1.5)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    html_kb=st.floats(min_value=1, max_value=200),
    css=st.integers(min_value=0, max_value=4),
    js=st.integers(min_value=0, max_value=8),
    images=st.integers(min_value=0, max_value=40),
    flash=st.integers(min_value=0, max_value=2),
    iframes=st.integers(min_value=0, max_value=3),
    chain=st.booleans(),
    dyn=st.floats(min_value=0, max_value=1),
)
def test_property_every_generated_page_is_valid(seed, html_kb, css, js,
                                                images, flash, iframes,
                                                chain, dyn):
    """Property: arbitrary specs always produce pages satisfying the
    Webpage invariants (validated in the constructor) with everything
    reachable from the root."""
    spec = PageSpec(name="prop", url="http://prop", mobile=False,
                    seed=seed, html_kb=html_kb, css_count=css,
                    js_count=js, image_count=images, flash_count=flash,
                    iframe_count=iframes, js_chain=chain,
                    js_dynamic_image_fraction=dyn)
    page = generate_page(spec)  # constructor validates
    assert len(page.reachable_ids()) == page.object_count
