"""Aggregator laws: exactness, associativity, chunking invariance.

The streaming engine's byte-identity claim rests on these properties,
so they are property-tested rather than example-tested: any chunking of
a sequence must produce the identical aggregate state, and any merge
tree over the chunks must produce the identical result.
"""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.aggregate import (ExactSum, MeanVariance, MinMax,
                                    QuantileSketch, ServiceAggregate,
                                    _UNIT_EXP)

K = QuantileSketch.K

finite_floats = st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False)
float_lists = st.lists(finite_floats, max_size=200)


def _split(values, cuts):
    points = sorted(c % (len(values) + 1) for c in cuts)
    pieces = []
    last = 0
    for p in points:
        pieces.append(values[last:p])
        last = p
    pieces.append(values[last:])
    return pieces


@settings(max_examples=100, deadline=None)
@given(float_lists)
def test_exact_sum_matches_fraction_oracle(values):
    total = ExactSum().add_block(np.array(values, dtype=np.float64))
    oracle = sum(Fraction(v) for v in map(float, values))
    assert Fraction(total.units, 1 << _UNIT_EXP) == oracle
    assert total.value == float(oracle)


@settings(max_examples=100, deadline=None)
@given(float_lists, st.lists(st.integers(min_value=0), min_size=2,
                             max_size=4))
def test_exact_sum_merge_is_exact_and_associative(values, cuts):
    x = np.array(values, dtype=np.float64)
    whole = ExactSum().add_block(x)
    parts = [ExactSum().add_block(np.array(p, dtype=np.float64))
             for p in _split(values, cuts)]
    left = ExactSum()
    for part in parts:
        left.merge(part)
    right = ExactSum()
    for part in reversed(
            [ExactSum.from_state(p.to_state()) for p in parts]):
        # re-hydrated copies merged in the opposite order
        right.merge(part)
    assert left == right == whole


def test_exact_sum_handles_subnormals_and_extremes():
    x = np.array([5e-324, 2.5e-310, 1e300, -1e300, 1e-300, math.pi])
    total = ExactSum().add_block(x)
    oracle = sum(Fraction(float(v)) for v in x)
    assert Fraction(total.units, 1 << _UNIT_EXP) == oracle


@settings(max_examples=60, deadline=None)
@given(float_lists, st.lists(st.integers(min_value=0), min_size=2,
                             max_size=4))
def test_mean_variance_split_invariant(values, cuts):
    x = np.array(values, dtype=np.float64)
    whole = MeanVariance().add_block(x)
    chunked = MeanVariance()
    for piece in _split(values, cuts):
        chunked.add_block(np.array(piece, dtype=np.float64))
    merged = MeanVariance()
    for piece in _split(values, cuts):
        merged.merge(MeanVariance().add_block(
            np.array(piece, dtype=np.float64)))
    assert whole == chunked == merged
    assert whole.count == len(values)
    if values:
        assert whole.variance >= 0.0
        assert whole.std == math.sqrt(whole.variance)


def test_mean_variance_rejects_square_overflow_without_warning():
    """A finite value whose square overflows is rejected up front with
    an error naming the overflow — no RuntimeWarning, no misleading
    "finite values" message, and the aggregate is left untouched."""
    stats = MeanVariance().add_block([1.0, 2.0])
    before = stats.to_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="square.*overflows"):
            stats.add_block([3.0, 2e154])
        # the largest finite square still folds
        MeanVariance().add_block([1.3407807929942596e154])
    assert stats.to_state() == before


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("make", [ExactSum, MeanVariance, MinMax,
                                  QuantileSketch, ServiceAggregate])
def test_non_finite_block_is_rejected_at_every_door(make, bad):
    """``ServiceAggregate`` checks finiteness once per block and its
    members trust that check, so each public ``add_block`` must still
    reject a non-finite block itself, with the one message, and leave
    the aggregate untouched."""
    aggregate = make().add_block([1.0, 2.0])
    before = aggregate.to_state()
    with pytest.raises(ValueError,
                       match="^aggregators require finite values$"):
        aggregate.add_block([3.0, bad, 4.0])
    assert aggregate.to_state() == before


def test_mean_variance_matches_numpy():
    rng = np.random.default_rng(3)
    x = rng.lognormal(2.0, 0.7, size=5000)
    stats = MeanVariance().add_block(x)
    assert math.isclose(stats.mean, float(x.mean()), rel_tol=1e-12)
    assert math.isclose(stats.variance, float(x.var()), rel_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(float_lists, st.lists(st.integers(min_value=0), min_size=2,
                             max_size=4))
def test_minmax_split_invariant(values, cuts):
    x = np.array(values, dtype=np.float64)
    whole = MinMax().add_block(x)
    merged = MinMax()
    for piece in _split(values, cuts):
        merged.merge(MinMax().add_block(np.array(piece,
                                                 dtype=np.float64)))
    assert whole == merged
    if values:
        assert whole.minimum == float(x.min())
        assert whole.maximum == float(x.max())


def test_sketch_is_chunking_invariant():
    """Feeding a sequence in any chunking yields the identical sketch
    state — the property that keeps streamed reports byte-identical."""
    rng = np.random.default_rng(5)
    x = rng.exponential(10.0, size=40000)
    whole = QuantileSketch().add_block(x)
    for trial in range(5):
        chunked = QuantileSketch()
        i = 0
        while i < x.size:
            step = int(rng.integers(1, 4000))
            chunked.add_block(x[i:i + step])
            i += step
        assert chunked == whole


def _sketch_rank(sketch, value):
    """The sketch's weighted count of retained items <= ``value``."""
    state = sketch.to_state()
    weighted = [(state["tail"], 1)] + [(values, 2 << height)
                                       for height, values in state["nodes"]]
    return sum(weight * sum(1 for v in values if v <= value)
               for values, weight in weighted)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 10000])
def test_sketch_rank_within_bound(n):
    rng = np.random.default_rng(n)
    x = rng.exponential(10.0, size=n)
    sketch = QuantileSketch().add_block(x)
    assert sketch.count == n
    xs = np.sort(x)
    for value in sketch.quantiles((0.01, 0.5, 0.9, 0.99, 1.0)).values():
        true_rank = int(np.searchsorted(xs, value, side="right"))
        assert abs(_sketch_rank(sketch, value) - true_rank) \
            <= sketch.rank_error_bound


def test_sketch_empty_and_validation():
    sketch = QuantileSketch()
    assert math.isnan(sketch.quantiles([0.5])["p50"])
    with pytest.raises(ValueError):
        sketch.quantiles([1.5])
    with pytest.raises(ValueError):
        QuantileSketch(-1)
    with pytest.raises(ValueError):
        QuantileSketch().add_block(np.array([np.nan]))
    # a fragment's statistics exist only once stitched
    fragment = QuantileSketch(3).add_block(np.arange(5.0))
    with pytest.raises(ValueError, match="stitch"):
        fragment.quantiles([0.5])
    with pytest.raises(ValueError, match="stitch"):
        fragment.rank_error_bound


def test_service_aggregate_state_roundtrips_through_json():
    """A whole stream's state, through JSON and the stitch, is the
    aggregate itself — and the stitched copy keeps evolving
    identically."""
    rng = np.random.default_rng(1)
    values = rng.exponential(10.0, size=12345)
    aggregate = ServiceAggregate().add_block(values)
    state = json.loads(json.dumps(aggregate.to_state()))
    restored = ServiceAggregate.stitch([state])
    assert restored == aggregate
    more = rng.exponential(10.0, size=777)
    assert aggregate.add_block(more) == restored.add_block(more)


# ----------------------------------------------------------------------
# Distributed-sweep properties: moment merges over arbitrary
# partitions, and the partition-exact sketch stitch (repro.sched's
# aggregate layer).
# ----------------------------------------------------------------------

cut_lists = st.lists(st.integers(min_value=0), min_size=2, max_size=5)


@settings(max_examples=100, deadline=None)
@given(float_lists, cut_lists, st.randoms(use_true_random=False))
def test_moment_merges_are_order_invariant_over_partitions(values, cuts,
                                                           rnd):
    """ExactSum / MeanVariance / MinMax: any partition of the stream,
    merged in any order, equals the whole — exactly, not approximately."""
    x = np.array(values, dtype=np.float64)
    whole = (ExactSum().add_block(x), MeanVariance().add_block(x),
             MinMax().add_block(x))
    pieces = _split(values, cuts)
    order = list(range(len(pieces)))
    rnd.shuffle(order)
    merged = (ExactSum(), MeanVariance(), MinMax())
    for i in order:
        arr = np.array(pieces[i], dtype=np.float64)
        merged[0].merge(ExactSum().add_block(arr))
        merged[1].merge(MeanVariance().add_block(arr))
        merged[2].merge(MinMax().add_block(arr))
    assert merged[0] == whole[0]
    assert merged[1] == whole[1]
    assert merged[2] == whole[2]


@st.composite
def service_streams(draw):
    """Service-time-like values, long enough at ``K`` for fragments to
    carry dyadic nodes of several heights."""
    n = draw(st.integers(min_value=0, max_value=6 * K + 7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.random.default_rng(seed).lognormal(2.6, 0.5, size=n)


def _fragments(values, cuts, cls=QuantileSketch):
    """One fragment per piece of the partition, each anchored at its
    global offset."""
    fragments = []
    offset = 0
    for piece in _split(values, cuts):
        fragments.append(cls(offset).add_block(piece))
        offset += len(piece)
    return fragments


@settings(max_examples=100, deadline=None)
@given(service_streams(), cut_lists)
def test_sketch_stitch_equals_sequential_over_partitions(values, cuts):
    """The dyadic-fragment stitch rebuilds the *sequential* sketch
    byte-for-byte from any partition of the stream into units."""
    serial = QuantileSketch().add_block(values)
    states = [fragment.to_state()
              for fragment in _fragments(values, cuts)]
    assert QuantileSketch.stitch(states) == serial


@settings(max_examples=60, deadline=None)
@given(service_streams(), cut_lists)
def test_sketch_stitch_survives_json_roundtrip(values, cuts):
    """Fragments ride in shard headers as JSON; repr round-trips
    floats exactly, so the stitched sketch stays byte-identical."""
    serial = QuantileSketch().add_block(values)
    states = [json.loads(json.dumps(fragment.to_state()))
              for fragment in _fragments(values, cuts)]
    assert QuantileSketch.stitch(states) == serial


@settings(max_examples=60, deadline=None)
@given(service_streams(), cut_lists)
def test_service_aggregate_stitch_equals_sequential(values, cuts):
    """The composite fragments (exact moments + sketch) stitch to the
    exact sequential ServiceAggregate, JSON round-trip included."""
    serial = ServiceAggregate().add_block(values)
    states = [json.loads(json.dumps(fragment.to_state()))
              for fragment in _fragments(values, cuts, ServiceAggregate)]
    assert ServiceAggregate.stitch(states) == serial


def test_stitch_rejects_out_of_order_fragments():
    a = QuantileSketch(0).add_block(np.arange(600.0)).to_state()
    b = QuantileSketch(600).add_block(np.arange(300.0)).to_state()
    with pytest.raises(ValueError):
        QuantileSketch.stitch([b, a])
    with pytest.raises(ValueError):
        QuantileSketch.stitch([a, a])


def test_stitch_rejects_mismatched_k():
    a = QuantileSketch(0).add_block(np.arange(600.0)).to_state()
    b = QuantileSketch(600).add_block(np.arange(300.0)).to_state()
    with pytest.raises(ValueError, match="k="):
        QuantileSketch.stitch([a, dict(b, k=K // 2)])


def test_stitch_rejects_a_fragment_that_miscounts():
    a = QuantileSketch(0).add_block(np.arange(600.0)).to_state()
    with pytest.raises(ValueError, match="count"):
        QuantileSketch.stitch([dict(a, count=601)])
    with pytest.raises(ValueError, match="aligned"):
        QuantileSketch.stitch([dict(a, head=[1.0])])
