"""Micro-batching pays for its window: under 8 closed-loop clients the
warm batched p99 beats the unbatched p99.

Each client thread sends a ``/predict``, waits for the answer and sends
the next, cycling through three what-ifs over one mid-size cell.  Two
of them share the ideal-profile scenario, so eight clients keep both
duplicate keys and a shared grid in flight: the traffic the batcher
coalesces.  Both servers are warm (a priming pass fills the corpus,
load and benchmark memos), so the loop times the steady state.
``tests/serve/test_service_golden.py`` shows the two modes answer with
the same bytes.

The p99 of 48 requests is their maximum, so one scheduling spike can
flip a single comparison.  The modes therefore alternate over three
passes, and the claim compares the median of each mode's p99.
"""

import json
import statistics
import threading
import time
import urllib.request
from contextlib import ExitStack

from repro.serve import ServeApp, ServerThread, WhatIfService

CLIENTS = 8
REQUESTS_PER_CLIENT = 6
PASSES = 3
#: ``batch_window`` per mode: 0 is unbatched, None the default
#: (occupancy batching).
WINDOWS = {"unbatched": 0.0, "batched": None}

PAYLOADS = (
    {"n_users": 120, "n_channels": 80, "horizon": 900.0,
     "mean_interval": 12.0},
    {"n_users": 150, "n_channels": 80, "horizon": 900.0,
     "mean_interval": 12.0, "setup": {"predictor": "gbrt-like"}},
    {"n_users": 120, "n_channels": 80, "horizon": 900.0,
     "mean_interval": 12.0, "profile": "congested"},
)


def _closed_loop(url, clients, requests_per_client):
    """Sorted per-request latencies (s) of ``clients`` closed loops."""
    latencies = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients, timeout=30)

    def client(index):
        barrier.wait()
        for turn in range(requests_per_client):
            body = json.dumps(PAYLOADS[(index + turn) % len(PAYLOADS)])
            request = urllib.request.Request(
                url + "/predict", data=body.encode(), method="POST",
                headers={"Content-Type": "application/json"})
            started = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=60) as reply:
                    reply.read()
            except OSError as exc:
                with lock:
                    errors.append(exc)
                return
            with lock:
                latencies.append(time.perf_counter() - started)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(latencies) == clients * requests_per_client
    return sorted(latencies)


def _p99(sorted_latencies):
    """Nearest-rank 99th percentile."""
    n = len(sorted_latencies)
    return sorted_latencies[min(n, round(0.99 * (n - 1)) + 1) - 1]


def _warm_server(stack, batch_window):
    """A warm, primed server on ``batch_window``; its URL."""
    service = WhatIfService(batch_window=batch_window)
    service.warmup()
    thread = ServerThread(ServeApp(service)).start()
    stack.callback(thread.stop)
    _closed_loop(thread.url, clients=2, requests_per_client=2)
    return thread.url


def test_batched_p99_beats_unbatched_at_8_clients():
    p99s = {mode: [] for mode in WINDOWS}
    with ExitStack() as stack:
        urls = {mode: _warm_server(stack, window)
                for mode, window in WINDOWS.items()}
        for _ in range(PASSES):
            for mode, url in urls.items():
                p99s[mode].append(_p99(_closed_loop(
                    url, CLIENTS, REQUESTS_PER_CLIENT)))
    unbatched = statistics.median(p99s["unbatched"])
    batched = statistics.median(p99s["batched"])
    assert batched < unbatched, (
        f"median batched p99 {1e3 * batched:.1f} ms not below unbatched "
        f"{1e3 * unbatched:.1f} ms; per pass (ms): "
        + ", ".join(f"{mode} {[round(1e3 * v, 1) for v in values]}"
                    for mode, values in p99s.items()))
