"""The numpy segment folds against the list-based folds they replaced.

``ExactSum``, ``QuantileSketch`` and ``PartialQuantileSketch`` fold
whole blocks with array operations; :mod:`tests.oracles.aggregate`
keeps the per-buffer Python loops.  Driven through the same random
chunkings (and, for the sums, interleaved merges), the two must hold
the same state byte for byte — ``repr`` of the exported state, not just equality,
because ``-0.0 == 0.0`` would hide a reordered signed zero.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.aggregate import (ExactSum, PartialQuantileSketch,
                                    QuantileSketch, stitch_quantile_sketch)
from tests.oracles.aggregate import (OracleExactSum,
                                     OraclePartialQuantileSketch,
                                     OracleQuantileSketch)

#: Signed zeros, subnormals and extreme exponents next to plain values.
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.5e-310, 1e300, -1e300, 1.7976931348623157e308, 1.0, -1.5]

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
    k = draw(st.sampled_from([2, 4, 256]))
    pool = draw(atoms)
    if draw(st.booleans()):
        pool += [0.0, -0.0]
    n = draw(st.integers(min_value=0, max_value=3 * k + 5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.asarray(pool, dtype=np.float64)[
        rng.integers(len(pool), size=n)]
    chunks = []
    i = 0
    while i < n:
        size = draw(st.integers(min_value=0, max_value=2 * k + 1))
        chunks.append((values[i:i + size], draw(st.booleans()),
                       draw(st.booleans())))
        i += size
    return k, values, chunks


@settings(max_examples=150, deadline=None)
@given(streams())
def test_sketch_and_sum_match_oracle_under_chunking_and_merges(case):
    k, _, chunks = case
    sketches = [QuantileSketch(k=k), OracleQuantileSketch(k=k)]
    sums = [ExactSum(), OracleExactSum()]
    side_sums = [ExactSum(), OracleExactSum()]
    for chunk, to_side, merge_after in chunks:
        for twin in sketches:
            twin.add_block(chunk)
        for total in (side_sums if to_side else sums):
            total.add_block(chunk)
        if merge_after:
            for twin, spare in zip(sums, side_sums):
                twin.merge(spare)
            side_sums = [ExactSum(), OracleExactSum()]
        assert repr(sketches[0].to_state()) \
            == repr(sketches[1].to_state())
        assert sums[0].units == sums[1].units
        assert side_sums[0].units == side_sums[1].units


@settings(max_examples=150, deadline=None)
@given(streams(), st.integers(min_value=0, max_value=600))
def test_partial_sketch_and_stitch_match_oracle(case, start):
    k, values, chunks = case
    partial = PartialQuantileSketch(start, k=k)
    oracle = OraclePartialQuantileSketch(start, k=k)
    for chunk, _, _ in chunks:
        partial.add_block(chunk)
        oracle.add_block(chunk)
        assert repr(partial.to_parts()) == repr(oracle.to_parts())
    # Fragments tiling the stream (cut at the chunk boundaries) stitch
    # to the oracle's sequential sketch.
    offset = 0
    parts = []
    for chunk, _, _ in chunks:
        parts.append(PartialQuantileSketch(offset, k=k)
                     .add_block(chunk).to_parts())
        offset += chunk.size
    if parts:
        serial = OracleQuantileSketch(k=k).add_block(values)
        assert repr(stitch_quantile_sketch(parts).to_state()) \
            == repr(serial.to_state())
