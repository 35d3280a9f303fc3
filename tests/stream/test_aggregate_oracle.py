"""The numpy segment folds against the list-based folds they replaced.

``ExactSum`` and ``QuantileSketch`` fold whole blocks with array
operations; :mod:`tests.oracles.aggregate` keeps ``ExactSum``'s
per-exponent loop and the level compactor that filled one value at a
time.  Driven through the same random chunkings (and, for the sums,
interleaved merges), the two must hold the same state byte for byte —
``repr`` of the exported state and of the quantiles, not just
equality, because ``-0.0 == 0.0`` would hide a reordered signed zero.
The sketch is driven as a whole stream (start 0) and as fragments cut
at a drawn start, stitched back together.  ``RowSketch`` keeps the
per-row ``_push_node`` fill and the ``sorted()`` quantile read-out that
``_push_rows`` and the ``lexsort`` read-out replaced; it covers
fragments, which the level compactor cannot.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.aggregate import ExactSum, QuantileSketch
from tests.oracles.aggregate import LevelSketch, OracleExactSum, RowSketch

K = QuantileSketch.K

#: Signed zeros, subnormals and extreme exponents next to plain values.
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.5e-310, 1e300, -1e300, 1.7976931348623157e308, 1.0, -1.5]

#: Quantiles compared against the oracle (the extremes included).
_QS = (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0)

atoms = st.lists(st.one_of(st.sampled_from(_EDGE),
                           st.floats(allow_nan=False,
                                     allow_infinity=False)),
                 min_size=1, max_size=12)


@st.composite
def streams(draw):
    """A value stream with many ties (drawn from a few atoms, so signed
    zeros mix inside one segment) plus the ops to feed it: chunk sizes
    and, per chunk, whether it feeds the side sum and whether to merge
    the side sum in afterwards."""
    pool = draw(atoms)
    if draw(st.booleans()):
        pool += [0.0, -0.0]
    n = draw(st.integers(min_value=0, max_value=9 * K + 5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.asarray(pool, dtype=np.float64)[
        rng.integers(len(pool), size=n)]
    chunks = []
    i = 0
    while i < n:
        size = draw(st.integers(min_value=0, max_value=2 * K + 1))
        chunks.append((values[i:i + size], draw(st.booleans()),
                       draw(st.booleans())))
        i += size
    return values, chunks


def _assert_matches(sketch: QuantileSketch, oracle: LevelSketch) -> None:
    assert repr(sketch.to_state()) == repr(oracle.to_state())
    assert sketch.rank_error_bound == oracle.error
    assert repr(sketch.quantiles(_QS)) == repr(oracle.quantiles(_QS))


@settings(max_examples=150, deadline=None)
@given(streams())
def test_sketch_and_sum_match_oracle_under_chunking_and_merges(case):
    _, chunks = case
    sketch, oracle = QuantileSketch(), LevelSketch(K)
    sums = [ExactSum(), OracleExactSum()]
    side_sums = [ExactSum(), OracleExactSum()]
    for chunk, to_side, merge_after in chunks:
        sketch.add_block(chunk)
        oracle.add_block(chunk)
        for total in (side_sums if to_side else sums):
            total.add_block(chunk)
        if merge_after:
            for twin, spare in zip(sums, side_sums):
                twin.merge(spare)
            side_sums = [ExactSum(), OracleExactSum()]
        _assert_matches(sketch, oracle)
        assert sums[0].units == sums[1].units
        assert side_sums[0].units == side_sums[1].units


@settings(max_examples=150, deadline=None)
@given(streams(), st.integers(min_value=0))
def test_fragment_sketches_stitch_to_oracle(case, cut):
    """A prefix fragment and one anchored at a drawn start (fed in the
    drawn chunking), and fragments tiling the stream at the chunk
    boundaries, stitch through JSON to the oracle's whole stream."""
    values, chunks = case
    oracle = LevelSketch(K).add_block(values)
    start = cut % (values.size + 1)
    suffix = QuantileSketch(start)
    offset = 0
    for chunk, _, _ in chunks:
        suffix.add_block(chunk[max(start - offset, 0):])
        offset += chunk.size
    assert suffix.count == values.size - start
    prefix = QuantileSketch().add_block(values[:start])
    tiles = []
    offset = 0
    for chunk, _, _ in chunks:
        tiles.append(QuantileSketch(offset).add_block(chunk))
        offset += chunk.size
    for fragments in ([prefix, suffix], tiles):
        states = [json.loads(json.dumps(fragment.to_state()))
                  for fragment in fragments]
        _assert_matches(QuantileSketch.stitch(states), oracle)


class _SmallSketch(QuantileSketch):
    """The production sketch at a segment length small enough that a
    few hundred values climb many heights."""

    __slots__ = ()
    K = 4


class _SmallRowSketch(RowSketch):
    __slots__ = ()
    K = 4


def _assert_same_sketch(fast: QuantileSketch, slow: QuantileSketch,
                        qs=_QS) -> None:
    """Node for node (heights, start segments and values), exported
    state and, for a whole stream, quantiles — all by ``repr``."""
    assert repr(fast._nodes) == repr(slow._nodes)
    assert repr(fast.to_state()) == repr(slow.to_state())
    if not fast.to_state()["start"]:
        assert repr(fast.quantiles(qs)) == repr(slow.quantiles(qs))


@st.composite
def fragment_feeds(draw, k):
    """Values with many ties and signed zeros, a fragment start, and
    the chunk sizes the fragment is fed in (long runs included, so one
    block carries many rows through several heights)."""
    pool = draw(atoms)
    if draw(st.booleans()):
        pool += [0.0, -0.0]
    n = draw(st.integers(min_value=0, max_value=70 * k + 3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    values = np.asarray(pool, dtype=np.float64)[
        np.random.default_rng(seed).integers(len(pool), size=n)]
    start = draw(st.integers(min_value=0, max_value=n))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=40 * k),
                          max_size=8))
    return values, start, sizes


def _feed(sketch, values, sizes):
    offset = 0
    for size in sizes + [values.size]:
        sketch.add_block(values[offset:offset + size])
        offset += size
    return sketch


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_carries_match_per_row_pushes(data):
    """``_push_rows`` leaves the counter one ``_push_node`` per row
    leaves, for a whole stream and for a fragment anchored at a drawn
    start (its first row often a right sibling whose left one lies
    before the fragment), at the production ``K`` and at ``K = 4``;
    stitched back, the fragments give the per-row fill's whole-stream
    sketch and quantiles."""
    fast_cls, slow_cls = data.draw(st.sampled_from(
        [(QuantileSketch, RowSketch), (_SmallSketch, _SmallRowSketch)]))
    values, start, sizes = data.draw(fragment_feeds(fast_cls.K))
    whole = [_feed(cls(), values, sizes) for cls in (fast_cls, slow_cls)]
    _assert_same_sketch(*whole)
    suffix = [_feed(cls(start), values[start:], sizes)
              for cls in (fast_cls, slow_cls)]
    _assert_same_sketch(*suffix)
    prefix = fast_cls().add_block(values[:start]).to_state()
    stitched = [cls.stitch([prefix, json.loads(json.dumps(part.to_state()))])
                for cls, part in zip((fast_cls, slow_cls), suffix)]
    _assert_same_sketch(*stitched)
    _assert_same_sketch(stitched[0], whole[1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                max_size=12 * 4),
       st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.sampled_from([0.0, -0.0, 1.0, 7.0])),
                max_size=12),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=6))
def test_quantile_readout_matches_sorted_tuples(open_values, nodes, qs):
    """The ``lexsort`` read-out picks the value the ``sorted()`` walk
    over ``(value, weight)`` picks, bit for bit (a ``-0.0``/``0.0`` tie
    across weights included), for hand-built counters of any shape."""
    fast, slow = QuantileSketch(), RowSketch()
    counter = [[height, 0, [value] * (1 + height % 3)]
               for height, value in sorted(nodes, reverse=True)]
    count = len(open_values) + sum((2 << h) * len(v)
                                   for h, _, v in counter)
    for sketch in (fast, slow):
        sketch._open = list(open_values)
        sketch._nodes = [list(node) for node in counter]
        sketch._count = count
    assert repr(fast.quantiles(qs)) == repr(slow.quantiles(qs))
