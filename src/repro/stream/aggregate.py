"""Online aggregators whose state does not depend on the chunking.

Block loops fold each block into an aggregate; for a sweep point to
come out the same at any block size and from any :mod:`repro.sched`
unit partition, the fold must not depend on how the stream was
chunked, and the per-unit fragments must reassemble exactly.
Floating-point Welford merging is *not* associative (each merge
rounds), so the moment aggregators here go one step further than the
classic recurrences: they accumulate exact sums.

**ExactSum** exploits the fact that every finite double is an integer
multiple of 2^-1074.  ``frexp`` splits x into mantissa·2^exp; the
53-bit integer mantissa ``round(m·2^53)`` scaled by ``2^(exp-53+1126)``
expresses x in units of 2^-1126 with a *non-negative* shift for every
double (the smallest subnormal has exp = -1073, giving shift 0), so
each block folds into one Python big integer.  Addition of integers is
associative and commutative, hence ``merge`` is exact, order- and
chunking-invariant, and ``value`` (via ``Fraction``) is the correctly
rounded double of the true real sum.  **MeanVariance** keeps exact
sums of x and x² (the per-element square is one deterministic double
op), so mean and population variance are correctly rounded rationals —
strictly stronger than Welford, at a cost that is negligible next to
the simulation producing the blocks.

**QuantileSketch** is a deterministic MRL-style compactor: level ``l``
holds up to ``k`` values of weight ``2^l``; a full level sorts and
promotes every second element.  Because level 0 compacts at *exact
element counts* — independent of block boundaries — feeding a sequence
in any chunking yields the identical sketch state.  Each compaction of
weight-w items perturbs any rank by at most w, and the sketch tracks
the accumulated bound itself (:attr:`QuantileSketch.rank_error_bound`).
Per-unit fragments (:class:`PartialQuantileSketch`) stitch back into
the sequential sketch byte for byte.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Unit exponent: values are accumulated in units of 2^-_UNIT_EXP.
#: 1126 = 1073 (smallest subnormal's frexp exponent, negated) + 53, the
#: smallest offset making every double's unit shift non-negative.
_UNIT_EXP = 1126
#: Mantissas are split into 26-bit halves, each summed per exponent as
#: float64.  A half is below 2^27 in magnitude, so any chunk of under
#: 2^25 of them sums exactly (every partial sum stays below 2^52).
_HALF_BITS = 26
#: Values folded per chunk: far inside that bound, and small enough that
#: a chunk's temporaries stay in cache (2^14 ran a 65,536-value block
#: about 3x faster than one whole-block pass on a 2-vCPU AMD EPYC).
_SUM_CHUNK = 1 << 14


def _require_finite(x: np.ndarray) -> None:
    if x.size and not np.isfinite(x).all():
        raise ValueError("aggregators require finite values")


def _fold_segments(x: np.ndarray, k: int) -> np.ndarray:
    """``sorted(seg)[1::2]`` of every full ``k``-segment of ``x``, one
    row per segment: the values a level-0 compaction promotes.

    Equal doubles are bitwise identical except ``-0.0 == 0.0``, the one
    tie whose order shows in the promoted values, so the sort is stable
    (the order ``sorted`` keeps) whenever the segments hold a zero.
    """
    segments = x[:x.size // k * k].reshape(-1, k)
    kind = "stable" if (segments == 0.0).any() else None
    return np.sort(segments, axis=1, kind=kind)[:, 1::2]


class ExactSum:
    """Exact big-integer accumulator for float64 sums."""

    __slots__ = ("_units",)

    def __init__(self, units: int = 0):
        self._units = int(units)

    @property
    def units(self) -> int:
        """The exact sum, in units of 2^-1126."""
        return self._units

    def add_block(self, values) -> "ExactSum":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        total = 0
        for start in range(0, x.size, _SUM_CHUNK):
            mantissa, exponent = np.frexp(x[start:start + _SUM_CHUNK])
            # m·2^53 is an integer < 2^53: exactly representable,
            # exactly truncated by the cast.
            m53 = np.ldexp(mantissa, 53).astype(np.int64)
            shifts = exponent + (_UNIT_EXP - 53)
            low = int(shifts.min())
            bins = shifts - low
            # Per exponent bin, the float sums of each half are exact
            # integers (see _HALF_BITS); m53 = hi·2^26 + lo.
            his = np.bincount(bins, weights=m53 >> _HALF_BITS)
            los = np.bincount(bins, weights=m53 & ((1 << _HALF_BITS) - 1))
            for b in np.flatnonzero((his != 0.0) | (los != 0.0)).tolist():
                total += ((int(his[b]) << _HALF_BITS) + int(los[b])) \
                    << (low + b)
        self._units += total
        return self

    def merge(self, other: "ExactSum") -> "ExactSum":
        self._units += other._units
        return self

    @property
    def value(self) -> float:
        """Correctly rounded double of the exact sum."""
        if self._units == 0:
            return 0.0
        return float(Fraction(self._units, 1 << _UNIT_EXP))

    def to_state(self) -> dict:
        return {"units": self._units}

    @classmethod
    def from_state(cls, state: dict) -> "ExactSum":
        return cls(units=int(state["units"]))

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactSum) and self._units == other._units

    def __hash__(self):  # pragma: no cover - aggregates are not keys
        return hash(self._units)


class MeanVariance:
    """Exact count/sum/sum-of-squares; mean and variance on demand."""

    __slots__ = ("_count", "_sum", "_sumsq")

    def __init__(self, count: int = 0, total: Optional[ExactSum] = None,
                 total_sq: Optional[ExactSum] = None):
        self._count = int(count)
        self._sum = total if total is not None else ExactSum()
        self._sumsq = total_sq if total_sq is not None else ExactSum()

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum.value

    def add_block(self, values) -> "MeanVariance":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        # The square is one double op per element — deterministic and
        # chunking-invariant; the *sum* of squares is then exact.
        with np.errstate(over="ignore"):
            squares = x * x
        if not np.isfinite(squares).all():
            raise ValueError("aggregators require values whose square "
                             "is finite: x * x overflows float64")
        self._count += int(x.size)
        self._sum.add_block(x)
        self._sumsq.add_block(squares)
        return self

    def merge(self, other: "MeanVariance") -> "MeanVariance":
        self._count += other._count
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        return self

    @property
    def mean(self) -> float:
        """Correctly rounded mean (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return float(Fraction(self._sum.units,
                              self._count << _UNIT_EXP))

    @property
    def variance(self) -> float:
        """Population variance, correctly rounded (0.0 when empty).

        var = (n·Q·2^1126 - S²) / (n²·2^2252) over exact integers,
        where S and Q are the unit sums of x and x².  Cauchy-Schwarz
        makes the true numerator non-negative, but Q sums the *rounded*
        per-element squares ``fl(x²)``, each of which can sit below the
        true x² by up to half an ulp — so the numerator can dip
        fractionally negative (e.g. a single x whose square is not
        representable).  Clamping to zero is exact in every case the
        true variance is zero and loses nothing elsewhere.
        """
        n = self._count
        if n == 0:
            return 0.0
        numerator = (n * self._sumsq.units << _UNIT_EXP) \
            - self._sum.units ** 2
        if numerator <= 0:
            return 0.0
        denominator = (n * n) << (2 * _UNIT_EXP)
        return float(Fraction(numerator, denominator))

    @property
    def std(self) -> float:
        """sqrt of the correctly rounded variance (deterministic)."""
        return math.sqrt(self.variance)

    def to_state(self) -> dict:
        return {"count": self._count, "sum": self._sum.to_state(),
                "sumsq": self._sumsq.to_state()}

    @classmethod
    def from_state(cls, state: dict) -> "MeanVariance":
        return cls(count=int(state["count"]),
                   total=ExactSum.from_state(state["sum"]),
                   total_sq=ExactSum.from_state(state["sumsq"]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MeanVariance)
                and self._count == other._count
                and self._sum == other._sum
                and self._sumsq == other._sumsq)

    __hash__ = None


class MinMax:
    """Running extrema (exact and trivially associative)."""

    __slots__ = ("_min", "_max")

    def __init__(self, minimum: Optional[float] = None,
                 maximum: Optional[float] = None):
        self._min = minimum
        self._max = maximum

    @property
    def minimum(self) -> Optional[float]:
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        return self._max

    def add_block(self, values) -> "MinMax":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        low = float(x.min())
        high = float(x.max())
        self._min = low if self._min is None else min(self._min, low)
        self._max = high if self._max is None else max(self._max, high)
        return self

    def merge(self, other: "MinMax") -> "MinMax":
        if other._min is not None:
            self._min = other._min if self._min is None \
                else min(self._min, other._min)
        if other._max is not None:
            self._max = other._max if self._max is None \
                else max(self._max, other._max)
        return self

    def to_state(self) -> dict:
        return {"min": self._min, "max": self._max}

    @classmethod
    def from_state(cls, state: dict) -> "MinMax":
        return cls(minimum=state["min"], maximum=state["max"])

    def __eq__(self, other) -> bool:
        return (isinstance(other, MinMax) and self._min == other._min
                and self._max == other._max)

    __hash__ = None


class QuantileSketch:
    """Deterministic compacting quantile sketch (MRL/KLL family).

    ``add_block`` is *chunking-invariant*: the sketch state after
    feeding a sequence depends only on the sequence, because level 0
    fills and compacts at exact element counts.  The worst-case
    weighted rank error accumulated by compactions is tracked in
    :attr:`rank_error_bound` (each compaction at level ``l`` moves any
    rank by at most ``2^l``).
    """

    __slots__ = ("_k", "_levels", "_count", "_error")

    def __init__(self, k: int = 256):
        if k < 2 or k % 2:
            raise ValueError(f"k must be even and >= 2, got {k}")
        self._k = int(k)
        self._levels: List[List[float]] = [[]]
        self._count = 0
        self._error = 0

    @property
    def k(self) -> int:
        return self._k

    @property
    def count(self) -> int:
        """Total weighted items fed in (weights always sum to this)."""
        return self._count

    @property
    def rank_error_bound(self) -> int:
        """Worst-case |estimated rank - true rank| accumulated so far."""
        return self._error

    def add_block(self, values) -> "QuantileSketch":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        k = self._k
        # Top up a partly filled level 0 first; every later full
        # segment compacts straight from an empty level 0, so its
        # promoted half is one row of the segment fold.
        head = min(-len(self._levels[0]) % k, x.size)
        if head:
            self._levels[0].extend(x[:head].tolist())
            if len(self._levels[0]) >= k:
                self._compact(0)
        rows = _fold_segments(x[head:], k)
        if len(rows) and len(self._levels) == 1:
            self._levels.append([])
        for row in rows.tolist():
            self._levels[1].extend(row)
            self._error += 1
            if len(self._levels[1]) >= k:
                self._compact(1)
        self._levels[0].extend(x[head + len(rows) * k:].tolist())
        self._count += int(x.size)
        return self

    def _compact(self, level: int) -> None:
        """Sort a full level, promote every second element one level up.

        Levels fill one value (level 0) or ``k/2`` promoted values at a
        time and compact at exactly ``k`` values, ``k`` even, so the
        whole level empties into its promoted half: total weight — and
        hence ``count`` — is invariant, and any rank moves by at most
        the level weight ``2^level``.
        """
        if level + 1 == len(self._levels):
            self._levels.append([])
        buf = sorted(self._levels[level])
        self._levels[level] = []
        self._levels[level + 1].extend(buf[1::2])
        self._error += 1 << level
        if len(self._levels[level + 1]) >= self._k:
            self._compact(level + 1)

    def quantiles(self, qs) -> Dict[str, float]:
        """Several quantiles in one pass, keyed ``"p50"``-style.

        One sort of the level buffers serves every requested ``q`` —
        the serving layer's ``/metrics`` endpoint reads p50/p99 from
        its latency sketch on every scrape, so the per-call sort of
        :meth:`quantile` would otherwise run once per quantile.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"q must be in [0, 1], got {q}")
        keys = [f"p{round(q * 100):d}" if (q * 100) == round(q * 100)
                else f"p{q * 100:g}" for q in qs]
        if self._count == 0:
            return {key: float("nan") for key in keys}
        items: List[Tuple[float, int]] = sorted(
            (v, 1 << level)
            for level, buf in enumerate(self._levels) for v in buf)
        out: Dict[str, float] = {}
        for key, q in zip(keys, qs):
            target = max(1, math.ceil(q * self._count))
            cumulative = 0
            value = items[-1][0]
            for candidate, weight in items:
                cumulative += weight
                if cumulative >= target:
                    value = candidate
                    break
            out[key] = value
        return out

    def to_state(self) -> dict:
        return {"k": self._k, "count": self._count, "error": self._error,
                "levels": [list(buf) for buf in self._levels]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuantileSketch)
                and self._k == other._k and self._count == other._count
                and self._error == other._error
                and self._levels == other._levels)

    __hash__ = None


def _push_node(nodes: List[List], height: int, start_seg: int,
               values: List[float]) -> None:
    """Push one dyadic node ``[height, start_seg, values]`` onto the
    binary counter ``nodes``, carrying while the top two share a height
    and the lower one starts a node of the next height
    (``combine(a, b) = sorted(a + b)[1::2]``)."""
    nodes.append([height, start_seg, values])
    while len(nodes) >= 2 and nodes[-1][0] == nodes[-2][0] \
            and nodes[-2][1] % (1 << (nodes[-2][0] + 1)) == 0:
        _, _, right = nodes.pop()
        h, s, left = nodes.pop()
        nodes.append([h + 1, s, sorted(left + right)[1::2]])


class PartialQuantileSketch:
    """Exact sketch fragment over elements ``[start, start+count)`` of
    a globally-ordered stream.

    Merging two sketches level by level would be rank-correct but
    *not* byte-identical to feeding one sequence through ``add_block``
    — it compacts different buffers than the sequential fill would
    (k=4, halves of 3+3: a merge compacts six raws at once where the
    sequential path compacted at element 4).  The distributed sweep
    needs byte-identity, so a unit records a fragment the stitcher can
    replay *as if* the stream had been sequential:

    - **head** — raw values before the first global ``k``-aligned
      boundary inside the fragment (they complete a level-0 buffer the
      previous fragment started);
    - **nodes** — the aligned middle, decomposed into canonical dyadic
      nodes: a height-``h`` node covers ``2^h`` consecutive aligned
      ``k``-segments and holds the ``k/2`` values the sequential sketch
      would keep for that subtree (``N_0(seg) = sorted(seg)[1::2]``,
      ``combine(a, b) = sorted(a + b)[1::2]``) — ``O(log)`` nodes per
      fragment, built with a local binary counter;
    - **tail** — raw values past the last complete segment (they seed
      the next fragment's first buffer, or the final level-0 buffer).

    The sequential sketch state after ``M`` full segments *is* a binary
    counter over those segments (compaction is eager and exact at
    ``k``), so :func:`stitch_quantile_sketch` rebuilds it exactly from
    the fragments' nodes — proven byte-identical property-by-property
    in ``tests/stream/test_aggregate.py``.
    """

    __slots__ = ("_k", "_start", "_count", "_head", "_buf", "_nodes")

    def __init__(self, start: int, k: int = 256):
        if k < 2 or k % 2:
            raise ValueError(f"k must be even and >= 2, got {k}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._k = int(k)
        self._start = int(start)
        self._count = 0
        self._head: List[float] = []
        self._buf: List[float] = []
        self._nodes: List[List] = []  # [height, start_segment, values]

    @property
    def count(self) -> int:
        return self._count

    def add_block(self, values) -> "PartialQuantileSketch":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        k = self._k
        # head: global positions before the first k-aligned boundary
        first_boundary = -(-self._start // k) * k
        pos = self._start + self._count
        i = min(max(first_boundary - pos, 0), x.size)
        self._head.extend(x[:i].tolist())
        # Top up a partly filled segment; every later full segment is
        # one row of the segment fold.
        take = min(-len(self._buf) % k, x.size - i)
        if take:
            self._buf.extend(x[i:i + take].tolist())
            i += take
            if len(self._buf) == k:
                _push_node(self._nodes, 0, (pos + i) // k - 1,
                           sorted(self._buf)[1::2])
                self._buf = []
        rows = _fold_segments(x[i:], k)
        for offset, row in enumerate(rows.tolist()):
            _push_node(self._nodes, 0, (pos + i) // k + offset, row)
        self._buf.extend(x[i + len(rows) * k:].tolist())
        self._count += int(x.size)
        return self

    def to_parts(self) -> dict:
        """JSON-safe fragment (floats round-trip exactly via repr)."""
        return {
            "k": self._k,
            "start": self._start,
            "count": self._count,
            "head": list(self._head),
            "tail": list(self._buf),
            "nodes": [[h, list(v)] for h, _, v in self._nodes],
        }


def stitch_quantile_sketch(parts_seq: Sequence[dict]) -> QuantileSketch:
    """Rebuild the sequential :class:`QuantileSketch` from ordered
    fragments tiling ``[0, total)``; byte-identical to ``add_block``
    over the concatenated stream.

    Cost is ``O(k log)`` per fragment boundary plus one segment sort
    per raw-spillover segment — independent of the stream length the
    fragments cover, which is what makes the distributed stitch cheap.
    """
    parts = list(parts_seq)
    if not parts:
        return QuantileSketch()
    k = int(parts[0]["k"])
    carry: List[float] = []   # raws awaiting a full segment
    stack: List[List] = []    # binary counter: [height, start_seg, values]
    seg_cursor = 0            # global index of the next segment to close
    expected = 0              # global element index the next part must start at

    def push(height: int, values: List[float]) -> None:
        nonlocal seg_cursor
        _push_node(stack, height, seg_cursor, values)
        seg_cursor += 1 << height

    def feed_raws(values: List[float]) -> None:
        take = min(-len(carry) % k, len(values))
        carry.extend(values[:take])
        if len(carry) == k:
            push(0, sorted(carry)[1::2])
            del carry[:]
        rows = _fold_segments(np.asarray(values[take:], dtype=float), k)
        for row in rows.tolist():
            push(0, row)
        carry.extend(values[take + len(rows) * k:])

    for part in parts:
        if int(part["k"]) != k:
            raise ValueError(
                f"fragment k={part['k']} does not match k={k}")
        if int(part["start"]) != expected:
            raise ValueError(
                f"fragment starts at {part['start']}, expected "
                f"{expected}: fragments must tile the stream in order")
        feed_raws([float(v) for v in part["head"]])
        if part["nodes"] and (carry or seg_cursor * k != expected
                              + len(part["head"])):
            raise ValueError("fragment nodes are not aligned with the "
                             "stitched prefix")
        for height, values in part["nodes"]:
            push(int(height), [float(v) for v in values])
        feed_raws([float(v) for v in part["tail"]])
        expected += int(part["count"])

    total = expected
    segments = total // k
    if seg_cursor != segments or len(carry) != total % k:
        raise ValueError("fragments do not add up to a whole stream")
    sketch = QuantileSketch(k=k)
    sketch._count = total
    levels: List[List[float]] = [list(carry)]
    if segments:
        levels.extend([] for _ in range(segments.bit_length()))
        for height, _, values in stack:
            levels[height + 1] = list(values)
        error = 0
        shift = 0
        while segments >> shift:
            error += (segments >> shift) << shift
            shift += 1
        sketch._error = error
    sketch._levels = levels
    return sketch


#: Quantile anchors reported per sweep point (fig11 CDF anchors).
SERVICE_QUANTILES = (0.5, 0.9, 0.99)


class ServiceAggregate:
    """Composite per-point aggregate over service times.

    Bundles the exact moments, extrema and the quantile sketch that the
    stream-sweep report consumes.
    """

    __slots__ = ("moments", "extrema", "sketch")

    def __init__(self, quantile_k: int = 256):
        self.moments = MeanVariance()
        self.extrema = MinMax()
        self.sketch = QuantileSketch(k=quantile_k)

    def add_block(self, values) -> "ServiceAggregate":
        x = np.asarray(values, dtype=np.float64).ravel()
        self.moments.add_block(x)
        self.extrema.add_block(x)
        self.sketch.add_block(x)
        return self

    def state_nbytes(self) -> int:
        """Rough resident footprint (for peak carried-state tracking)."""
        level_bytes = sum(8 * len(buf) for buf in self.sketch._levels)
        return level_bytes + 64

    def __eq__(self, other) -> bool:
        return (isinstance(other, ServiceAggregate)
                and self.moments == other.moments
                and self.extrema == other.extrema
                and self.sketch == other.sketch)

    __hash__ = None


class PartialServiceAggregate:
    """Per-unit fragment of a :class:`ServiceAggregate`.

    Moments and extrema merge exactly in any grouping (big-int adds and
    min/max are associative down to the bit), so the fragment simply
    holds them; the sketch, which has no sequential-equivalent merge,
    is held as a :class:`PartialQuantileSketch` fragment instead.  :func:`stitch_service_aggregates` folds an ordered run of
    fragments into the exact ``ServiceAggregate`` the serial streamed
    sweep would have produced.
    """

    __slots__ = ("moments", "extrema", "sketch_parts")

    def __init__(self, start: int, quantile_k: int = 256):
        self.moments = MeanVariance()
        self.extrema = MinMax()
        self.sketch_parts = PartialQuantileSketch(start, k=quantile_k)

    def add_block(self, values) -> "PartialServiceAggregate":
        x = np.asarray(values, dtype=np.float64).ravel()
        self.moments.add_block(x)
        self.extrema.add_block(x)
        self.sketch_parts.add_block(x)
        return self

    def to_state(self) -> dict:
        return {"moments": self.moments.to_state(),
                "extrema": self.extrema.to_state(),
                "sketch_parts": self.sketch_parts.to_parts()}


def stitch_service_aggregates(states: Sequence[dict]
                              ) -> ServiceAggregate:
    """Fold ordered :meth:`PartialServiceAggregate.to_state` fragments
    into the exact sequential :class:`ServiceAggregate`."""
    states = list(states)
    aggregate = ServiceAggregate()
    if not states:
        return aggregate
    for state in states:
        aggregate.moments.merge(MeanVariance.from_state(state["moments"]))
        aggregate.extrema.merge(MinMax.from_state(state["extrema"]))
    aggregate.sketch = stitch_quantile_sketch(
        [state["sketch_parts"] for state in states])
    return aggregate
