"""Golden equivalence: the streamed stream-sweep must be byte-identical
to the materialised reference.

:func:`repro.stream.sweep.run_stream_sweep` and the whole-array sweep
of ``tests/oracles/capacity.py`` feed the same block resolver; the
report text and the JSON payload must match exactly.  The CLI test
runs in subprocesses to cover a work-dir resume end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.capacity.simulator import CapacityConfig
from repro.runtime.observability import collecting
from repro.stream.sweep import (default_user_counts, lognormal_pool,
                                run_stream_sweep)
from tests.oracles.capacity import in_memory_sweep

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_stream_sweep_report_and_json_identical():
    """The stream-sweep points — including the report JSON — match
    between the block loop and the materialised reference."""
    pool = lognormal_pool()
    config = CapacityConfig(n_channels=60, horizon=1200.0, seed=5)
    streamed = run_stream_sweep(pool, [80, 100, 120], config, seed=9)
    in_memory = in_memory_sweep(pool, [80, 100, 120], config, seed=9)
    assert streamed.report() == in_memory.report()
    assert json.dumps(streamed.to_dict(), sort_keys=True) \
        == json.dumps(in_memory.to_dict(), sort_keys=True)
    assert sum(p.dropped for p in in_memory.points) > 0


def test_streamed_equals_in_memory_at_10x_fig11():
    """Fig. 11's five-point load sweep on 2000 channels (10x the
    paper's cell): the streamed points equal the materialised ones."""
    pool = lognormal_pool()
    config = CapacityConfig(n_channels=2000, horizon=900.0, seed=7)
    counts = default_user_counts(config, float(pool.mean()))
    with collecting() as window:
        streamed = run_stream_sweep(pool, counts, config, seed=7)
    in_memory = in_memory_sweep(pool, counts, config, seed=7)
    assert streamed.points == in_memory.points
    assert sum(point.dropped for point in streamed.points) > 0
    counters = window.snapshot()
    assert counters.stream_blocks > 0
    assert counters.stream_peak_carried_bytes > 0


def test_cli_stream_sweep_resumes_and_reports_identically(tmp_path):
    """End-to-end through the CLI: a sweep rerun on the same finished
    --work-dir serves every point from its stitched shards (zero
    blocks) and prints the identical report."""
    report_a = tmp_path / "a.json"
    report_b = tmp_path / "b.json"
    args = [sys.executable, "-m", "repro", "stream-sweep",
            "--scale", "1", "--horizon", "600", "--seed", "5",
            "--users", "250", "300", "--block", "4096",
            "--work-dir", str(tmp_path / "work"),
            "--unit-blocks", "2"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    first = subprocess.run(args + ["--report", str(report_a)],
                           capture_output=True, text=True, env=env,
                           timeout=600.0)
    assert first.returncode == 0, first.stderr
    second = subprocess.run(args + ["--report", str(report_b)],
                            capture_output=True, text=True, env=env,
                            timeout=600.0)
    assert second.returncode == 0, second.stderr

    payload_a = json.loads(report_a.read_text())
    payload_b = json.loads(report_b.read_text())
    for key in ("config", "points"):
        assert payload_a[key] == payload_b[key]
    # the rerun touched no blocks: everything came from the shards
    assert payload_b["kernel"]["stream_blocks"] == 0
    assert payload_a["kernel"]["stream_blocks"] > 0
    # the rendered tables (everything above the runtime line) match
    table_a = first.stdout.split("-- streamed runtime")[0]
    table_b = second.stdout.split("-- streamed runtime")[0]
    assert table_a == table_b
    assert "users" in table_a
