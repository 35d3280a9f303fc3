"""Bounded-memory proof: under an address-space rlimit, capacity runs
complete where a whole-array draw dies allocating its arrays.

- The sweep: a fig11-shaped point at 10x the default population (2000
  channels, 16 h horizon, ~7.8 M sessions) with ~100 MB of headroom
  over the streamed sweep's own peak.  The whole-array reference of
  ``tests/oracles/capacity.py`` dies under that limit.  The streamed
  peak does not grow with the horizon and the whole-array draw does:
  in memory VmPeak measured 337 MB at 8 h and 494 MB at 16 h, on a
  2-vCPU AMD EPYC.  Measured peaks and limit are in CHANGES.md.
- The search: Fig. 11's capacity search at the paper's 4 h horizon,
  whose ``hi = 5000`` probe holds ~2.9 M sessions, with 32 MB of
  headroom over a child that only imports and builds the pool.  Every
  probe streams 4,096-arrival blocks, so it fits (VmPeak 0.5 MB over
  that child's); drawing each probe's arrivals whole peaked 90 MB over
  it and cannot.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    sys.platform != "linux",
    reason="RLIMIT_AS semantics are only reliable on Linux")

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")

_CHILD = r"""
import json
import sys

from repro.capacity.simulator import (CapacityConfig, CapacitySimulator,
                                      capacity_at_drop_target)
from repro.stream.sweep import (default_user_counts, lognormal_pool,
                                run_stream_sweep)
from tests.oracles.capacity import in_memory_sweep

params = json.loads(sys.argv[1])
pool = lognormal_pool()
config = CapacityConfig(n_channels=params["n_channels"],
                        horizon=params["horizon"], seed=7)
answer = {}
if params["mode"] == "search":
    answer["capacity"] = capacity_at_drop_target(
        CapacitySimulator(pool, config), 0.02, seed=7)
elif params["mode"] != "setup":
    sweep = run_stream_sweep if params["mode"] == "stream" \
        else in_memory_sweep
    counts = [default_user_counts(config, float(pool.mean()))[2]]
    point = sweep(pool, counts, config, seed=7).points[0]
    answer.update(sessions=point.sessions, dropped=point.dropped)
with open("/proc/self/status") as status:
    for line in status:
        if line.startswith("VmPeak:"):
            answer["vm_peak_kb"] = int(line.split()[1])
print(json.dumps(answer))
"""

SWEEP = {"n_channels": 2000, "horizon": 57600.0}
SEARCH = {"n_channels": 200, "horizon": 14400.0}


def _run_child(mode, params, limit_bytes=None, timeout=540.0):
    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit_bytes, limit_bytes))

    return subprocess.run(
        [sys.executable, "-c", _CHILD,
         json.dumps({**params, "mode": mode})],
        capture_output=True, text=True, timeout=timeout, cwd=str(ROOT),
        env={"PYTHONPATH": f"{SRC}:{ROOT}", "PATH": "/usr/bin:/bin"},
        preexec_fn=set_limit if limit_bytes else None)


def _assert_out_of_memory(child):
    assert child.returncode != 0, (
        "the whole-array draw unexpectedly fit under the rlimit; "
        "streamed peak no longer meaningfully lower?")
    assert ("MemoryError" in child.stderr
            or "Unable to allocate" in child.stderr
            or "Cannot allocate" in child.stderr), child.stderr


def test_streamed_fits_where_in_memory_ooms():
    # 1. Unlimited streamed run: the reference answer and the peak
    #    address space the limit is derived from.
    free = _run_child("stream", SWEEP)
    assert free.returncode == 0, free.stderr
    reference = json.loads(free.stdout)
    assert reference["sessions"] > 0
    limit = (reference["vm_peak_kb"] + 100 * 1024) * 1024

    # 2. The whole-array reference cannot materialise the sweep under
    #    that limit.
    _assert_out_of_memory(_run_child("memory", SWEEP, limit_bytes=limit))

    # 3. The streamed path completes under the same limit with the
    #    identical answer.
    bounded = _run_child("stream", SWEEP, limit_bytes=limit)
    assert bounded.returncode == 0, bounded.stderr
    result = json.loads(bounded.stdout)
    assert result["sessions"] == reference["sessions"]
    assert result["dropped"] == reference["dropped"]


def test_capacity_search_streams_its_probes():
    """The limit comes from a child that runs nothing, so a search
    whose probes drew their arrivals whole would die under it."""
    setup = _run_child("setup", SEARCH)
    assert setup.returncode == 0, setup.stderr
    limit = (json.loads(setup.stdout)["vm_peak_kb"] + 32 * 1024) * 1024

    free = _run_child("search", SEARCH)
    assert free.returncode == 0, free.stderr
    bounded = _run_child("search", SEARCH, limit_bytes=limit)
    assert bounded.returncode == 0, bounded.stderr
    assert json.loads(bounded.stdout)["capacity"] \
        == json.loads(free.stdout)["capacity"]
    assert 10 < json.loads(free.stdout)["capacity"] < 5000
