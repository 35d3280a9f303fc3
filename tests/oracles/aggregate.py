"""The list-based aggregate folds the numpy segment folds replaced.

``ExactSum`` summed each exponent's mantissas in 512-element int64
chunks; both quantile sketches filled a Python list one level-0 buffer
at a time and sorted every full ``k``-segment with ``sorted()``.  The
subclasses here keep those loops and inherit everything else
(compaction, state export), so a differential test can drive an
oracle and a production aggregate through the same operations and
compare their states byte for byte.
"""

import numpy as np

from repro.stream.aggregate import (_UNIT_EXP, ExactSum,
                                    PartialQuantileSketch, QuantileSketch,
                                    _push_node, _require_finite)

#: int64 chunk length for mantissa partial sums: 512 * 2^53 < 2^63.
_SUM_CHUNK = 512


class OracleExactSum(ExactSum):
    """:class:`ExactSum` summing per exponent in int64 chunks."""

    __slots__ = ()

    def add_block(self, values) -> "OracleExactSum":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
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
        return self


class OracleQuantileSketch(QuantileSketch):
    """:class:`QuantileSketch` filling level 0 one buffer at a time."""

    __slots__ = ()

    def add_block(self, values) -> "OracleQuantileSketch":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        data = x.tolist()
        n = len(data)
        i = 0
        while i < n:
            level0 = self._levels[0]
            take = min(self._k - len(level0), n - i)
            level0.extend(data[i:i + take])
            self._count += take
            i += take
            if len(level0) >= self._k:
                self._compact(0)
        return self


class OraclePartialQuantileSketch(PartialQuantileSketch):
    """:class:`PartialQuantileSketch` sorting each segment with
    ``sorted()`` as its buffer fills."""

    __slots__ = ()

    def add_block(self, values) -> "OraclePartialQuantileSketch":
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size == 0:
            return self
        _require_finite(x)
        data = x.tolist()
        k = self._k
        i, n = 0, len(data)
        first_boundary = -(-self._start // k) * k
        pos = self._start + self._count
        if pos < first_boundary:
            take = min(first_boundary - pos, n)
            self._head.extend(data[:take])
            self._count += take
            i = take
        while i < n:
            take = min(k - len(self._buf), n - i)
            self._buf.extend(data[i:i + take])
            self._count += take
            i += take
            if len(self._buf) == k:
                seg = (self._start + self._count) // k - 1
                _push_node(self._nodes, 0, seg, sorted(self._buf)[1::2])
                self._buf = []
        return self
