"""Bounded-memory streaming sweep engine.

Capacity and fault sweeps materialise whole arrival arrays and result
vectors; ``repro.stream`` turns them into block pipelines with O(block +
n_channels) resident state:

- :mod:`repro.stream.source` — chunked arrival/session generators,
  draw-for-draw identical to the materialised arrays;
- :mod:`repro.stream.aggregate` — mergeable online aggregators (exact
  count/sum/mean-variance, min/max, deterministic quantile sketch);
- :mod:`repro.stream.pipeline` — backpressure-aware producer/consumer
  driver threading :class:`repro.fleet.capacity.DropCarry` between
  blocks;
- :mod:`repro.stream.shard` — spill-to-disk npz shards with a JSON
  manifest for checkpoint/resume;
- :mod:`repro.stream.sweep` — the ``repro stream-sweep`` driver.
"""

from __future__ import annotations

#: Arrivals per streamed block: ~0.5 MB per float64 array, large enough
#: to amortise per-block NumPy and queue overhead, small enough that a
#: handful of in-flight blocks stay far under any sweep's array sizes.
DEFAULT_BLOCK_ARRIVALS = 65536
