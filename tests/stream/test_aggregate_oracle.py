"""The numpy segment folds against the list-based folds they replaced.

``ExactSum`` and ``QuantileSketch`` fold whole blocks with array
operations; :mod:`tests.oracles.aggregate` keeps ``ExactSum``'s
per-exponent loop and the level compactor that filled one value at a
time.  Driven through the same random chunkings (and, for the sums,
interleaved merges), the two must hold the same state byte for byte —
``repr`` of the exported state and of the quantiles, not just
equality, because ``-0.0 == 0.0`` would hide a reordered signed zero.
The sketch is driven as a whole stream (start 0) and as fragments cut
at a drawn start, stitched back together.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.aggregate import ExactSum, QuantileSketch
from tests.oracles.aggregate import LevelSketch, OracleExactSum

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
