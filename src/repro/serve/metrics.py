"""Service observability: request counters, latency sketches, cache rates.

``GET /metrics`` answers from one :class:`ServeMetrics` instance shared
by every request thread.  Latency quantiles come from the streaming
layer's deterministic MRL :class:`~repro.stream.aggregate.
QuantileSketch` — the one sketch every sweep point uses — so
the p50/p99 the load harness gates on and the p50/p99 the server
reports are computed by one implementation.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.core.comparison import benchmark_cache_stats
from repro.ablation.objective import load_cache_stats
from repro.runtime.observability import KERNEL_STATS
from repro.stream.aggregate import QuantileSketch
from repro.webpages.corpus import page_cache_stats

#: Quantiles the endpoint reports, keyed p50/p90/p99 in the snapshot.
LATENCY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class ServeMetrics:
    """Thread-safe request/latency/error accounting for one server."""

    def __init__(self):
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._sketches: Dict[str, QuantileSketch] = {}

    def observe(self, endpoint: str, seconds: float,
                error: bool = False) -> None:
        """Fold one handled request into the aggregate."""
        with self._lock:
            self._requests[endpoint] = \
                self._requests.get(endpoint, 0) + 1
            if error:
                self._errors[endpoint] = \
                    self._errors.get(endpoint, 0) + 1
            sketch = self._sketches.get(endpoint)
            if sketch is None:
                sketch = self._sketches[endpoint] = QuantileSketch()
            sketch.add_block([float(seconds) * 1000.0])

    def snapshot(self) -> dict:
        """The ``/metrics`` body: counters, latencies, cache rates."""
        with self._lock:
            requests = dict(self._requests)
            errors = dict(self._errors)
            latency = {
                endpoint: dict(
                    count=sketch.count,
                    **sketch.quantiles(LATENCY_QUANTILES))
                for endpoint, sketch in self._sketches.items()}
        kernel = KERNEL_STATS.snapshot()
        return {
            "requests": requests,
            "errors": errors,
            "latency_ms": latency,
            "caches": {
                "benchmark_comparison": benchmark_cache_stats(),
                "pages": page_cache_stats(),
                "ablate_loads": load_cache_stats(),
            },
            "serving": {
                "requests": kernel.serve_requests,
                "batches": kernel.serve_batches,
                "coalesced": kernel.serve_coalesced,
            },
        }
