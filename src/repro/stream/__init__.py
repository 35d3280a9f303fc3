"""Bounded-memory streaming sweep engine.

Capacity sweeps materialise whole arrival arrays and result vectors;
``repro.stream`` turns them into block loops with O(block + n_channels)
resident state:

- :mod:`repro.stream.source` — chunked arrival/session generators,
  draw-for-draw identical to the materialised arrays;
- :mod:`repro.stream.aggregate` — mergeable online aggregators (exact
  count/sum/mean-variance, min/max, deterministic quantile sketch);
- :mod:`repro.stream.shard` — spill-to-disk npz shards with a JSON
  manifest, the storage of a :mod:`repro.sched` work dir;
- :mod:`repro.stream.sweep` — the ``repro stream-sweep`` driver, whose
  streamed ``sweep_point`` threads one
  :class:`repro.fleet.capacity.DropCarry` through the blocks.
"""

from __future__ import annotations

#: Arrivals per streamed block: ~0.5 MB per float64 array, large enough
#: to amortise per-block NumPy overhead, small enough that a block
#: stays far under any sweep's array sizes.
DEFAULT_BLOCK_ARRIVALS = 65536
