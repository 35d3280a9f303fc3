"""The resolver's merge-rank live counts against the binning they
replaced.

``repro.fleet.capacity._live_counts`` ranks each arrival in one stable
order of the sorted releases followed by the arrivals;
``tests/oracles/capacity.py::binned_live_counts`` bins every release
with ``searchsorted`` and cumulative-sums the bins.  The two must give
the same counts wherever a release equals an arrival — in the slice or
in the carried frontier — with duplicated instants, signed zeros and
float32 streams, and the resolver built on either must return the same
masks, carries and work counts, byte for byte.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import capacity as fleet_capacity
from repro.fleet.capacity import _live_counts, resolve_drops_block
from repro.runtime.observability import collecting
from tests.oracles.capacity import binned_live_counts, heap_drops

#: Half-integer instants (and signed zeros) make arrival, departure
#: and frontier ties exact and frequent.
instants = st.one_of(st.integers(min_value=0, max_value=24)
                     .map(lambda t: t * 0.5),
                     st.sampled_from([0.0, -0.0]))
dtypes = st.sampled_from([np.float64, np.float32])


@st.composite
def slices(draw):
    """One slice as the resolver builds it: sorted arrivals, departures
    (arrival + service, in their promoted dtype) that often equal an
    arrival, and a carried frontier drawn from the same instants, cast
    to the departures' dtype."""
    arrivals = np.sort(np.array(draw(st.lists(instants, min_size=1,
                                              max_size=40)),
                                dtype=draw(dtypes)), kind="stable")
    services = np.array(draw(st.lists(
        st.integers(min_value=0, max_value=8).map(lambda s: s * 0.5),
        min_size=arrivals.size, max_size=arrivals.size)),
        dtype=draw(dtypes))
    departures = arrivals + services
    busy = np.array(draw(st.lists(instants, max_size=12)),
                    dtype=departures.dtype)
    return arrivals, departures, busy


@settings(max_examples=300, deadline=None)
@given(slices())
@example((np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]),
          np.array([1.0, 2.0])))
@example((np.array([-0.0, 0.0]), np.array([0.0, -0.0]),
          np.array([-0.0])))
def test_merge_rank_counts_equal_binned_counts(case):
    arrivals, departures, busy = case
    got = _live_counts(arrivals, departures, busy)
    expected = binned_live_counts(arrivals, departures, busy)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


def _resolve(arrivals, services, n_channels, cuts, live=None):
    """Masks, carries and work units of the stream resolved block by
    block at ``cuts``, with the resolver's live counts swapped for
    ``live`` when given."""
    patch = (mock.patch.object(fleet_capacity, "_live_counts", live)
             if live else nullcontext())
    out = []
    carry = None
    with patch, collecting() as stats:
        for lo, hi in zip([0] + cuts, cuts + [arrivals.size]):
            mask, carry = resolve_drops_block(arrivals[lo:hi],
                                              services[lo:hi], n_channels,
                                              carry, max_sweeps=3)
            out.append((mask.tobytes(), carry.busy.dtype.str,
                        carry.busy.tobytes(), repr(carry.boundary)))
    return out, stats.snapshot().work_units


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=1, max_value=12)),
                min_size=1, max_size=120),
       st.integers(min_value=1, max_value=6),
       st.lists(st.integers(min_value=0), max_size=4),
       dtypes, dtypes)
def test_resolver_on_merge_rank_equals_resolver_on_binning(
        pairs, n_channels, cuts, arrival_dtype, service_dtype):
    """Over drawn chunkings, with departures tying later arrivals and
    the carried frontier, and a small sweep budget so the scalar
    fallback also runs: the same bytes out of both live counts, and the
    heap loop's drops."""
    arrivals = np.cumsum(np.array([g for g, _ in pairs]) * 0.5,
                         dtype=arrival_dtype)
    services = (np.array([s for _, s in pairs]) * 0.5).astype(
        service_dtype)
    cuts = sorted({c % (arrivals.size + 1) for c in cuts})
    got = _resolve(arrivals, services, n_channels, cuts)
    assert got == _resolve(arrivals, services, n_channels, cuts,
                           live=binned_live_counts)
    mask = np.frombuffer(b"".join(m for m, *_ in got[0]), dtype=bool)
    np.testing.assert_array_equal(
        mask, heap_drops(arrivals, services, n_channels))
