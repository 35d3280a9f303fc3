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

**QuantileSketch** is a deterministic MRL-style compactor kept as a
binary counter of dyadic nodes: every ``K``-segment of the stream (at
a global multiple of ``K``) folds to ``sorted(seg)[1::2]``, and two
adjacent equal-height nodes fold the same way into one of the next
height.  Segments close at *exact global positions* — independent of
block boundaries — so feeding a sequence in any chunking yields the
identical sketch state, and each fold of weight-w items perturbs any
rank by at most w (:attr:`QuantileSketch.rank_error_bound`).  Merging
two sketches node by node would be rank-correct but not byte-identical
to one sequential fill (it would fold different buffers), so a
:mod:`repro.sched` unit keeps a sketch anchored at its global start
instead — the raws before its first aligned boundary, its dyadic
nodes, its open segment — and :meth:`QuantileSketch.stitch` replays
the fragments through the same fill and the same counter into the
whole-stream sketch, byte for byte.  **ServiceAggregate** bundles
moments, extrema and the sketch, and stitches the same way.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

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


class _Accumulator:
    """The one public ``add_block`` of every aggregator here: it checks
    the block's finiteness once, then folds it through the class's
    ``_add_finite``, which trusts it.  A composite's ``_add_finite``
    folds its members' ``_add_finite`` without checking again."""

    __slots__ = ()

    def add_block(self, values):
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size:
            if not np.isfinite(x).all():
                raise ValueError("aggregators require finite values")
            self._add_finite(x)
        return self


def _fold_segments(x: np.ndarray, k: int) -> np.ndarray:
    """``sorted(seg)[1::2]`` of every full ``k``-segment of ``x``, one
    row per segment: the height-0 node each segment folds to.

    Equal doubles are bitwise identical except ``-0.0 == 0.0``, the one
    tie whose order shows in the folded values, so the sort is stable
    (the order ``sorted`` keeps) whenever the segments hold a zero.
    """
    segments = x[:x.size // k * k].reshape(-1, k)
    kind = "stable" if (segments == 0.0).any() else None
    return np.sort(segments, axis=1, kind=kind)[:, 1::2]


class ExactSum(_Accumulator):
    """Exact big-integer accumulator for float64 sums."""

    __slots__ = ("_units",)

    def __init__(self, units: int = 0):
        self._units = int(units)

    @property
    def units(self) -> int:
        """The exact sum, in units of 2^-1126."""
        return self._units

    def _add_finite(self, x: np.ndarray) -> None:
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


class MeanVariance(_Accumulator):
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

    def _add_finite(self, x: np.ndarray) -> None:
        # The square is one double op per element — deterministic and
        # chunking-invariant; the *sum* of squares is then exact.
        with np.errstate(over="ignore"):
            squares = x * x
        if not np.isfinite(squares).all():
            raise ValueError("aggregators require values whose square "
                             "is finite: x * x overflows float64")
        self._count += int(x.size)
        self._sum._add_finite(x)
        self._sumsq._add_finite(squares)

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


class MinMax(_Accumulator):
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

    def _add_finite(self, x: np.ndarray) -> None:
        low = float(x.min())
        high = float(x.max())
        self._min = low if self._min is None else min(self._min, low)
        self._max = high if self._max is None else max(self._max, high)

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


def _push_rows(nodes: List[List], rows: np.ndarray, first: int) -> None:
    """Push the height-0 ``rows`` of consecutive segments ``first,
    first + 1, ...`` onto ``nodes``, leaving the counter
    :func:`_push_node` leaves after one push per row.

    Level by level: a first node that starts a right sibling completes
    the counter's top through :func:`_push_node`; the rest start at a
    multiple of ``2^(h+1)`` segments, so adjacent pairs combine into
    height ``h+1`` with one row-wise sort (stable when a zero is
    present, as in :func:`_fold_segments`), and an odd last node waits
    for its sibling above the nodes the pairs make.
    """
    waiting = []
    height, start = 0, first
    while rows.shape[0]:
        if start % (2 << height):
            _push_node(nodes, height, start, rows[0].tolist())
            rows = rows[1:]
            start += 1 << height
        pairs, odd = divmod(rows.shape[0], 2)
        if odd:
            waiting.append([height, start + (2 * pairs << height),
                            rows[-1].tolist()])
        if not pairs:
            break
        merged = rows[:2 * pairs].reshape(pairs, -1)
        kind = "stable" if (merged == 0.0).any() else None
        rows = np.sort(merged, axis=1, kind=kind)[:, 1::2]
        height += 1
    nodes.extend(reversed(waiting))


class QuantileSketch(_Accumulator):
    """Deterministic compacting quantile sketch (MRL/KLL family) over
    elements ``[start, start + count)`` of a globally ordered stream.

    The stream is cut into ``K``-segments at multiples of ``K``.  A
    full segment folds to the dyadic node ``sorted(seg)[1::2]`` of
    height 0, and two adjacent height-``h`` nodes whose left one starts
    at a multiple of ``2^(h+1)`` segments combine into one of height
    ``h+1`` (``sorted(a + b)[1::2]``): a binary counter of nodes
    ``[height, start_seg, values]``, each value of a height-``h`` node
    weighing ``2^(h+1)``.  Around the counter sit

    - **head** — the raws before the first ``K``-aligned boundary,
      completing a segment an earlier fragment opened (always empty at
      start 0);
    - the **open segment** — the raws past the last full segment.

    Segments close at exact global positions, so the state depends only
    on the values and ``start``, never on the block boundaries.  A
    whole stream (start 0) reads its quantiles and error bound straight
    off the counter; the fragments of a unit partition export
    :meth:`to_state` and :meth:`stitch` back into it byte for byte.
    """

    #: Segment length, fixed so that every fragment stitches.
    K = 256

    __slots__ = ("_start", "_count", "_head", "_open", "_nodes")

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._start = int(start)
        self._count = 0
        self._head: List[float] = []
        self._open: List[float] = []
        self._nodes: List[List] = []  # [height, start_seg, values]

    @property
    def count(self) -> int:
        """Values fed in (the retained weights always sum to this)."""
        return self._count

    @property
    def rank_error_bound(self) -> int:
        """Worst-case |estimated rank - true rank| of a whole stream.

        Halving ``2^l`` segments' worth of weight-``2^l`` values (one
        raw segment at ``l = 0``, two height-``l-1`` nodes above) moves
        any rank by at most ``2^l``, and ``M`` full segments make
        ``floor(M / 2^l)`` such folds at each ``l``.
        """
        self._require_whole()
        segments = self._count // self.K
        return sum((segments >> level) << level
                   for level in range(segments.bit_length()))

    def _require_whole(self) -> None:
        if self._start:
            raise ValueError("a fragment (start > 0) has no quantiles "
                             "of its own: stitch the fragments first")

    def _add_finite(self, x: np.ndarray) -> None:
        # head: global positions before the first K-aligned boundary
        head = min(max(-self._start % self.K - self._count, 0), x.size)
        self._head.extend(x[:head].tolist())
        self._count += head
        self._fill(x[head:])

    def _fill(self, x: np.ndarray) -> None:
        """Fold raws at global position ``start + count``, past the
        head, into the open segment and the counter."""
        k = self.K
        pos = self._start + self._count
        # Top up the open segment; every later full segment is one row
        # of the segment fold.
        take = min(-len(self._open) % k, x.size)
        if take:
            self._open.extend(x[:take].tolist())
            if len(self._open) == k:
                _push_node(self._nodes, 0, (pos + take) // k - 1,
                           sorted(self._open)[1::2])
                self._open = []
        rows = _fold_segments(x[take:], k)
        _push_rows(self._nodes, rows, (pos + take) // k)
        self._open.extend(x[take + len(rows) * k:].tolist())
        self._count += int(x.size)

    def quantiles(self, qs) -> Dict[str, float]:
        """Several quantiles of a whole stream in one pass, keyed
        ``"p50"``-style.

        One sort of the retained values serves every requested ``q`` —
        the serving layer's ``/metrics`` endpoint reads p50/p99 from
        its latency sketch on every scrape.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"q must be in [0, 1], got {q}")
        self._require_whole()
        keys = [f"p{round(q * 100):d}" if (q * 100) == round(q * 100)
                else f"p{q * 100:g}" for q in qs]
        if self._count == 0:
            return {key: float("nan") for key in keys}
        # The level compactor's order: the open segment, then the nodes
        # by increasing height, sorted by (value, weight).  Weights
        # differ across nodes, so a -0.0/0.0 tie is only unresolved
        # inside one node, whose order the stable lexsort keeps.
        weighted = [(self._open, 1)] + [
            (values, 2 << height)
            for height, _, values in reversed(self._nodes)]
        values = np.concatenate([np.asarray(v, dtype=np.float64)
                                 for v, _ in weighted])
        weights = np.repeat([w for _, w in weighted],
                            [len(v) for v, _ in weighted])
        order = np.lexsort((weights, values))
        cumulative = np.cumsum(weights[order])
        # The weights sum to the count, so every target is reached.
        picks = np.searchsorted(
            cumulative, [max(1, math.ceil(q * self._count)) for q in qs])
        return {key: float(values[order[pick]])
                for key, pick in zip(keys, picks.tolist())}

    def to_state(self) -> dict:
        """JSON-safe state (floats round-trip exactly via repr)."""
        return {
            "k": self.K,
            "start": self._start,
            "count": self._count,
            "head": list(self._head),
            "tail": list(self._open),
            "nodes": [[h, list(v)] for h, _, v in self._nodes],
        }

    @classmethod
    def stitch(cls, states: Sequence[dict]) -> "QuantileSketch":
        """The whole-stream sketch of ordered fragment states tiling
        ``[0, total)``; byte-identical to ``add_block`` over the
        concatenated stream.

        Heads and tails go through the one fill, nodes onto the one
        counter: ``O(K log)`` per fragment boundary plus one segment
        sort per raw-spillover segment, independent of the stream
        length the fragments cover.
        """
        sketch = cls()
        k = cls.K
        for state in states:
            if int(state["k"]) != k:
                raise ValueError(
                    f"fragment k={state['k']} does not match k={k}")
            if int(state["start"]) != sketch._count:
                raise ValueError(
                    f"fragment starts at {state['start']}, expected "
                    f"{sketch._count}: fragments must tile the stream "
                    f"in order")
            end = sketch._count + int(state["count"])
            sketch._fill(np.asarray(state["head"], dtype=np.float64))
            if state["nodes"] and sketch._open:
                raise ValueError("fragment nodes are not aligned with "
                                 "the stitched prefix")
            for height, values in state["nodes"]:
                _push_node(sketch._nodes, int(height), sketch._count // k,
                           [float(v) for v in values])
                sketch._count += k << int(height)
            sketch._fill(np.asarray(state["tail"], dtype=np.float64))
            if sketch._count != end:
                raise ValueError(
                    f"fragment covers {sketch._count - int(state['start'])}"
                    f" values, not its count {state['count']}")
        return sketch

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuantileSketch)
                and self._start == other._start
                and self._count == other._count
                and self._head == other._head
                and self._open == other._open
                and self._nodes == other._nodes)

    __hash__ = None


#: Quantile anchors reported per sweep point (fig11 CDF anchors).
SERVICE_QUANTILES = (0.5, 0.9, 0.99)


class ServiceAggregate(_Accumulator):
    """Composite aggregate over the service times of stream elements
    ``[start, start + count)``: exact moments, extrema and the quantile
    sketch that the stream-sweep report consumes.

    The serial sweep and ``/predict`` fold a whole stream (start 0).  A
    :mod:`repro.sched` unit folds its range at the unit's global
    offset, and :meth:`stitch` folds the ordered fragment states into
    the exact whole-stream aggregate: moments and extrema merge exactly
    in any grouping (big-int adds and min/max are associative down to
    the bit), the sketch stitches.
    """

    __slots__ = ("moments", "extrema", "sketch")

    def __init__(self, start: int = 0):
        self.moments = MeanVariance()
        self.extrema = MinMax()
        self.sketch = QuantileSketch(start)

    def _add_finite(self, x: np.ndarray) -> None:
        self.moments._add_finite(x)
        self.extrema._add_finite(x)
        self.sketch._add_finite(x)

    def state_nbytes(self) -> int:
        """Rough resident footprint (for peak carried-state tracking)."""
        sketch = self.sketch
        values = len(sketch._head) + len(sketch._open) + sum(
            len(node[2]) for node in sketch._nodes)
        return 8 * values + 64

    def to_state(self) -> dict:
        return {"moments": self.moments.to_state(),
                "extrema": self.extrema.to_state(),
                "sketch": self.sketch.to_state()}

    @classmethod
    def stitch(cls, states: Sequence[dict]) -> "ServiceAggregate":
        """Fold ordered :meth:`to_state` fragments into the exact
        whole-stream aggregate."""
        states = list(states)
        aggregate = cls()
        for state in states:
            aggregate.moments.merge(MeanVariance.from_state(state["moments"]))
            aggregate.extrema.merge(MinMax.from_state(state["extrema"]))
        aggregate.sketch = QuantileSketch.stitch(
            [state["sketch"] for state in states])
        return aggregate

    def __eq__(self, other) -> bool:
        return (isinstance(other, ServiceAggregate)
                and self.moments == other.moments
                and self.extrema == other.extrema
                and self.sketch == other.sketch)

    __hash__ = None
