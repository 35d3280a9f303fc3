"""Synthetic page synthesis.

:func:`generate_page` expands a compact :class:`PageSpec` into a full
object graph with a seeded RNG, so every call with the same spec yields
byte-identical pages.  The structure mirrors how 2012-era pages were
built: a root HTML document pulling in stylesheets, scripts, images and
the odd flash banner; stylesheets pulling background images; scripts
fetching additional content (their references are *dynamic* — invisible
until executed); and optional iframes with their own small documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.units import kb, require_non_negative, require_positive
from repro.webpages.objects import ObjectKind, WebObject
from repro.webpages.page import Webpage


@dataclass(frozen=True)
class PageSpec:
    """Compact description of a synthetic page."""

    name: str
    url: str
    mobile: bool
    seed: int
    #: Root HTML size, kilobytes.
    html_kb: float
    #: Stylesheet count and mean size.
    css_count: int = 1
    css_kb: float = 20.0
    #: Script count, mean size, and per-script complexity multiplier.
    js_count: int = 2
    js_kb: float = 25.0
    js_complexity: float = 1.0
    #: Fraction of the page's images that are only fetched by scripts at
    #: execution time (dynamic references).
    js_dynamic_image_fraction: float = 0.15
    #: Chain the back half of the scripts: each dynamically pulls in the
    #: next (ad/widget loaders), so their fetches are discovered late —
    #: 2012-era full pages spread transmissions across the whole load.
    js_chain: bool = False
    #: Image count and mean size.
    image_count: int = 8
    image_kb: float = 12.0
    #: Flash banner count and mean size.
    flash_count: int = 0
    flash_kb: float = 60.0
    #: Embedded iframe documents.
    iframe_count: int = 0
    iframe_kb: float = 8.0
    #: Fraction of images referenced from stylesheets rather than HTML.
    css_image_fraction: float = 0.2
    page_height: int = 1500
    page_width: int = 320

    def __post_init__(self) -> None:
        require_positive("html_kb", self.html_kb)
        for name in ("css_kb", "js_kb", "image_kb", "flash_kb", "iframe_kb"):
            require_non_negative(name, getattr(self, name))
        for name in ("css_count", "js_count", "image_count", "flash_count",
                     "iframe_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative int")
        for name in ("js_dynamic_image_fraction", "css_image_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        require_positive("js_complexity", self.js_complexity)


def _jitter_sizes(rng: np.random.Generator, mean_kb: float,
                  count: int) -> List[float]:
    """Draw ``count`` sizes (bytes) with a lognormal spread around the
    mean, preserving the total in expectation."""
    if count == 0:
        return []
    if mean_kb == 0:
        return [0.0] * count
    sigma = 0.45
    draws = rng.lognormal(mean=-0.5 * sigma ** 2, sigma=sigma, size=count)
    return [kb(mean_kb) * float(d) for d in draws]


def generate_page(spec: PageSpec) -> Webpage:
    """Expand a :class:`PageSpec` into a validated :class:`Webpage`."""
    rng = np.random.default_rng(spec.seed)
    objects: Dict[str, WebObject] = {}

    image_sizes = _jitter_sizes(rng, spec.image_kb, spec.image_count)
    image_ids = [f"{spec.name}/img{i}" for i in range(spec.image_count)]
    for oid, size in zip(image_ids, image_sizes):
        objects[oid] = WebObject(oid, ObjectKind.IMAGE, size)

    flash_ids = [f"{spec.name}/flash{i}" for i in range(spec.flash_count)]
    for oid, size in zip(flash_ids,
                         _jitter_sizes(rng, spec.flash_kb, spec.flash_count)):
        objects[oid] = WebObject(oid, ObjectKind.FLASH, size)

    # Partition images: script-fetched (dynamic), stylesheet backgrounds,
    # and plain <img> tags in the HTML.
    shuffled = list(image_ids)
    rng.shuffle(shuffled)
    n_dynamic = int(round(spec.js_dynamic_image_fraction * len(shuffled)))
    if spec.js_count == 0:
        n_dynamic = 0
    dynamic_images = shuffled[:n_dynamic]
    rest = shuffled[n_dynamic:]
    n_css_images = int(round(spec.css_image_fraction * len(shuffled)))
    if spec.css_count == 0:
        n_css_images = 0
    css_images = rest[:n_css_images]
    html_images = rest[n_css_images:]

    css_ids = [f"{spec.name}/style{i}.css" for i in range(spec.css_count)]
    css_sizes = _jitter_sizes(rng, spec.css_kb, spec.css_count)
    for index, (oid, size) in enumerate(zip(css_ids, css_sizes)):
        refs = tuple(css_images[index::spec.css_count])
        # Stylesheets contribute rules, not DOM nodes.
        objects[oid] = WebObject(oid, ObjectKind.CSS, size,
                                 static_references=refs, dom_nodes=0)

    js_ids = [f"{spec.name}/script{i}.js" for i in range(spec.js_count)]
    js_sizes = _jitter_sizes(rng, spec.js_kb, spec.js_count)
    # With js_chain, the root references only the front half of the
    # scripts; each chained script dynamically loads the next.
    chain_start = (spec.js_count + 1) // 2 \
        if spec.js_chain and spec.js_count >= 2 else spec.js_count
    for index, (oid, size) in enumerate(zip(js_ids, js_sizes)):
        dyn = list(dynamic_images[index::spec.js_count])
        if spec.js_chain and chain_start - 1 <= index < spec.js_count - 1:
            dyn.append(js_ids[index + 1])
        objects[oid] = WebObject(
            oid, ObjectKind.JS, size,
            dynamic_references=tuple(dyn),
            complexity=spec.js_complexity,
            dom_nodes=2 + len(dyn))

    iframe_ids = [f"{spec.name}/frame{i}.html"
                  for i in range(spec.iframe_count)]
    iframe_sizes = _jitter_sizes(rng, spec.iframe_kb, spec.iframe_count)
    for oid, size in zip(iframe_ids, iframe_sizes):
        objects[oid] = WebObject(oid, ObjectKind.HTML, size,
                                 dom_nodes=max(1, int(size / 1000 * 6)))

    root_id = f"{spec.name}/index.html"
    root_size = kb(spec.html_kb)
    root_refs = tuple(css_ids) + tuple(js_ids[:chain_start]) \
        + tuple(html_images) + tuple(flash_ids) + tuple(iframe_ids)
    objects[root_id] = WebObject(
        root_id, ObjectKind.HTML, root_size,
        static_references=root_refs,
        dom_nodes=max(1, int(spec.html_kb * 6)))

    return Webpage(url=spec.url, root_id=root_id, objects=objects,
                   mobile=spec.mobile, page_height=spec.page_height,
                   page_width=spec.page_width)
