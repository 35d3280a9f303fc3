"""Bounded-memory streaming sweep engine.

Every capacity run streams its arrivals in blocks from an
:class:`repro.capacity.simulator.ArrivalBlockSource`, with O(block +
n_channels) resident state; ``repro.stream`` holds what sweeps build
on top of those blocks:

- :mod:`repro.stream.aggregate` — chunking-invariant online
  aggregators (exact count/sum/mean-variance, min/max, deterministic
  quantile sketch) and their per-unit fragments;
- :mod:`repro.stream.shard` — self-verifying spill-to-disk npz
  shards, one file per key, the storage of a :mod:`repro.sched` work
  dir;
- :mod:`repro.stream.sweep` — the ``repro stream-sweep`` driver, whose
  ``sweep_point`` folds each resolved block's services into the
  point's aggregate.
"""
from __future__ import annotations

#: Arrivals per streamed block: ~0.5 MB per float64 array, large enough
#: to amortise per-block NumPy overhead, small enough that a block
#: stays far under any sweep's array sizes.
DEFAULT_BLOCK_ARRIVALS = 65536
