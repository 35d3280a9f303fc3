"""The list-based aggregate folds the numpy segment folds replaced.

``ExactSum`` summed each exponent's mantissas in 512-element int64
chunks (:class:`OracleExactSum`, which inherits everything else).

:class:`LevelSketch` is the level compactor the production
``QuantileSketch`` replaced, self-contained: level ``l`` holds values
of weight ``2^l``, level 0 fills one value at a time, and a level that
reaches ``k`` values sorts and promotes every second one a level up,
tracking the rank error each compaction adds.  It exports its levels
in the production counter form — level 0 is the open segment, level
``h+1`` the height-``h`` node — so a differential test can compare the
two states byte for byte.

:class:`RowSketch` is ``QuantileSketch`` as it was before its carries
and read-out went to numpy: ``_fill`` pushes each folded segment row
through ``_push_node`` one at a time (where the production fill hands
all rows to ``_push_rows``), and ``quantiles`` walks ``sorted()``
``(value, weight)`` tuples (where production uses ``lexsort`` +
``cumsum`` + ``searchsorted``).  It covers fragments (start > 0) and
stitches, which the level compactor cannot.
"""

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.stream.aggregate import (_UNIT_EXP, ExactSum, QuantileSketch,
                                    _fold_segments, _push_node)

#: int64 chunk length for mantissa partial sums: 512 * 2^53 < 2^63.
_SUM_CHUNK = 512


class OracleExactSum(ExactSum):
    """:class:`ExactSum` summing per exponent in int64 chunks."""

    __slots__ = ()

    def _add_finite(self, x: np.ndarray) -> None:
        mantissa, exponent = np.frexp(x)
        m53 = np.ldexp(mantissa, 53).astype(np.int64)
        shifts = exponent.astype(np.int64) + (_UNIT_EXP - 53)
        total = 0
        for shift in np.unique(shifts):
            part = m53[shifts == shift]
            subtotal = 0
            for i in range(0, part.size, _SUM_CHUNK):
                subtotal += int(part[i:i + _SUM_CHUNK]
                                .sum(dtype=np.int64))
            total += subtotal << int(shift)
        self._units += total


class LevelSketch:
    """The MRL level compactor over a whole stream, one value at a time."""

    def __init__(self, k: int = 256):
        self.k = k
        self.levels: List[List[float]] = [[]]
        self.count = 0
        self.error = 0

    def add_block(self, values) -> "LevelSketch":
        for value in np.asarray(values, dtype=np.float64).ravel().tolist():
            self.levels[0].append(value)
            self.count += 1
            if len(self.levels[0]) == self.k:
                self._compact(0)
        return self

    def _compact(self, level: int) -> None:
        """Sort a full level, promote every second element one level up."""
        if level + 1 == len(self.levels):
            self.levels.append([])
        buf = sorted(self.levels[level])
        self.levels[level] = []
        self.levels[level + 1].extend(buf[1::2])
        self.error += 1 << level
        if len(self.levels[level + 1]) == self.k:
            self._compact(level + 1)

    def quantiles(self, qs) -> Dict[str, float]:
        keys = [f"p{round(q * 100):d}" if (q * 100) == round(q * 100)
                else f"p{q * 100:g}" for q in qs]
        if self.count == 0:
            return {key: float("nan") for key in keys}
        items: List[Tuple[float, int]] = sorted(
            (v, 1 << level)
            for level, buf in enumerate(self.levels) for v in buf)
        out = {}
        for key, q in zip(keys, qs):
            target = max(1, math.ceil(q * self.count))
            cumulative = 0
            for value, weight in items:
                cumulative += weight
                if cumulative >= target:
                    break
            out[key] = value
        return out

    def to_state(self) -> dict:
        """The production ``QuantileSketch(0).to_state()`` layout: the
        counter's nodes run from the highest level down."""
        return {
            "k": self.k,
            "start": 0,
            "count": self.count,
            "head": [],
            "tail": list(self.levels[0]),
            "nodes": [[level - 1, list(buf)]
                      for level, buf in reversed(
                          list(enumerate(self.levels))[1:]) if buf],
        }


class RowSketch(QuantileSketch):
    """:class:`QuantileSketch` with the per-row carry loop and the
    tuple-sorting quantile read-out."""

    __slots__ = ()

    def _fill(self, x: np.ndarray) -> None:
        k = self.K
        pos = self._start + self._count
        take = min(-len(self._open) % k, x.size)
        if take:
            self._open.extend(x[:take].tolist())
            if len(self._open) == k:
                _push_node(self._nodes, 0, (pos + take) // k - 1,
                           sorted(self._open)[1::2])
                self._open = []
        rows = _fold_segments(x[take:], k)
        first = (pos + take) // k
        for offset, row in enumerate(rows.tolist()):
            _push_node(self._nodes, 0, first + offset, row)
        self._open.extend(x[take + len(rows) * k:].tolist())
        self._count += int(x.size)

    def quantiles(self, qs) -> Dict[str, float]:
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"q must be in [0, 1], got {q}")
        self._require_whole()
        keys = [f"p{round(q * 100):d}" if (q * 100) == round(q * 100)
                else f"p{q * 100:g}" for q in qs]
        if self._count == 0:
            return {key: float("nan") for key in keys}
        weighted = [(self._open, 1)] + [
            (values, 2 << height)
            for height, _, values in reversed(self._nodes)]
        items: List[Tuple[float, int]] = sorted(
            (v, weight) for values, weight in weighted for v in values)
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
