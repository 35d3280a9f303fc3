"""Bounded-memory proof: under an address-space rlimit sized from the
streamed run's own peak, the streamed sweep completes while the
in-memory path dies allocating its materialised arrays.

This is the acceptance criterion for the streaming engine made
executable: a fig11-shaped point at 10x the default population (2000
channels, 16 h horizon, ~7.8 M sessions) with ~100 MB of headroom over
the streamed peak.  The streamed peak does not grow with the horizon
and the in-memory path's materialised arrays do: in memory VmPeak
measured 337 MB at 8 h and 494 MB at 16 h, on a 2-vCPU AMD EPYC.  The
16 h horizon dates from a 293 MB streamed peak, when a producer thread
drew blocks ahead and the 8 h in-memory run fit inside the headroom.
Drawing inline (no address space reserved for a thread), the 16 h
peaks are 159,288 kB streamed and 494,244 kB in memory, against
a 261,688 kB limit."""

import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    sys.platform != "linux",
    reason="RLIMIT_AS semantics are only reliable on Linux")

SRC = str(Path(__file__).resolve().parents[2] / "src")

_CHILD = r"""
import json
import sys

from repro.capacity.simulator import CapacityConfig
from repro.stream.sweep import (default_user_counts, lognormal_pool,
                                run_stream_sweep)

params = json.loads(sys.argv[1])
pool = lognormal_pool()
config = CapacityConfig(n_channels=params["n_channels"],
                        horizon=params["horizon"], seed=7)
counts = [default_user_counts(config, float(pool.mean()))[2]]
result = run_stream_sweep(pool, counts, config, seed=7,
                          stream=params["stream"])
peak_kb = 0
with open("/proc/self/status") as status:
    for line in status:
        if line.startswith("VmPeak:"):
            peak_kb = int(line.split()[1])
print(json.dumps({"sessions": result.points[0].sessions,
                  "dropped": result.points[0].dropped,
                  "vm_peak_kb": peak_kb}))
"""

PARAMS = {"n_channels": 2000, "horizon": 57600.0}


def _run_child(stream, limit_bytes=None, timeout=540.0):
    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit_bytes, limit_bytes))

    return subprocess.run(
        [sys.executable, "-c", _CHILD,
         json.dumps({**PARAMS, "stream": stream})],
        capture_output=True, text=True, timeout=timeout,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        preexec_fn=set_limit if limit_bytes else None)


def test_streamed_fits_where_in_memory_ooms():
    # 1. Unlimited streamed run: the reference answer and the peak
    #    address space the limit is derived from.
    free = _run_child(stream=True)
    assert free.returncode == 0, free.stderr
    reference = json.loads(free.stdout)
    assert reference["sessions"] > 0
    limit = (reference["vm_peak_kb"] + 100 * 1024) * 1024

    # 2. The in-memory path cannot materialise the sweep under that
    #    limit.
    in_memory = _run_child(stream=False, limit_bytes=limit)
    assert in_memory.returncode != 0, (
        "in-memory path unexpectedly fit under the rlimit; "
        "streamed peak no longer meaningfully lower?")
    assert ("MemoryError" in in_memory.stderr
            or "Unable to allocate" in in_memory.stderr
            or "Cannot allocate" in in_memory.stderr), in_memory.stderr

    # 3. The streamed path completes under the same limit with the
    #    identical answer.
    bounded = _run_child(stream=True, limit_bytes=limit)
    assert bounded.returncode == 0, bounded.stderr
    result = json.loads(bounded.stdout)
    assert result["sessions"] == reference["sessions"]
    assert result["dropped"] == reference["dropped"]
