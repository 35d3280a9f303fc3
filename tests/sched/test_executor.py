"""Golden gate for the distributed executor: any worker count, any
partition, any crash pattern — byte-identical to the serial sweep."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.capacity.simulator import CapacityConfig
from repro.runtime.observability import collecting
from repro.sched import (WorkDirMismatch, ensure_spec, execute_work_dir,
                         merge_work_dir, run_distributed_sweep,
                         spec_payload)
from repro.stream.shard import params_fingerprint
from repro.stream.sweep import lognormal_pool, run_stream_sweep

SRC = str(Path(__file__).resolve().parents[2] / "src")

POOL = lognormal_pool(seed=7)
CONFIG = CapacityConfig(n_channels=100, horizon=400.0, seed=7)
COUNTS = [1500, 3000]
KW = dict(seed=7, block_arrivals=512)


def _serial():
    return run_stream_sweep(POOL, COUNTS, CONFIG, **KW)


WORKER = """
import sys
import numpy as np
from repro.capacity.simulator import CapacityConfig
from repro.runtime.observability import collecting
from repro.sched import run_distributed_sweep
from repro.stream.sweep import lognormal_pool

idx, work_dir = int(sys.argv[1]), sys.argv[2]
pool = lognormal_pool(seed=7)
config = CapacityConfig(n_channels=100, horizon=400.0, seed=7)
result = run_distributed_sweep(pool, [1500, 3000], config, seed=7,
                               work_dir=work_dir, block_arrivals=512,
                               unit_blocks=2, worker_index=idx,
                               stale_after=2.0, poll=0.02)
payload = result.to_dict()
payload["report"] = result.report()
sys.stdout.write(__import__("json").dumps(payload, sort_keys=True))
"""


def _spawn_worker(index: int, work_dir: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, str(index), str(work_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err.decode()
    return out.decode()


def test_single_worker_matches_serial_bytes(tmp_path):
    serial = _serial()
    result = run_distributed_sweep(POOL, COUNTS, CONFIG,
                                   work_dir=tmp_path, unit_blocks=2,
                                   **KW)
    assert result.report() == serial.report()
    assert json.dumps(result.to_dict(), sort_keys=True) \
        == json.dumps(serial.to_dict(), sort_keys=True)


def test_any_unit_partition_matches_serial_bytes(tmp_path):
    serial = _serial()
    for unit_blocks in (1, 3, 64):
        result = run_distributed_sweep(
            POOL, COUNTS, CONFIG, work_dir=tmp_path / f"u{unit_blocks}",
            unit_blocks=unit_blocks, **KW)
        assert result.report() == serial.report()


def test_rejoining_a_finished_dir_is_pure_read(tmp_path):
    run_distributed_sweep(POOL, COUNTS, CONFIG, work_dir=tmp_path,
                          unit_blocks=2, **KW)
    stats = execute_work_dir(tmp_path)
    assert stats["tasks"] == {}  # nothing left to run
    assert merge_work_dir(tmp_path).report() == _serial().report()


def test_mismatched_parameters_refuse_to_join(tmp_path):
    payload = spec_payload(POOL, COUNTS, CONFIG, **KW)
    ensure_spec(tmp_path, payload)
    other = spec_payload(POOL, COUNTS, CONFIG, seed=8,
                         block_arrivals=512)
    with pytest.raises(WorkDirMismatch):
        ensure_spec(tmp_path, other)


def test_two_workers_both_produce_serial_bytes(tmp_path):
    serial = _serial()
    expected = serial.report()
    first = _spawn_worker(0, tmp_path)
    second = _spawn_worker(1, tmp_path)
    for proc in (first, second):
        payload = json.loads(_finish(proc))
        assert payload["report"] == expected
        assert payload["points"] == serial.to_dict()["points"]


def test_killed_worker_is_stolen_and_bytes_still_match(tmp_path):
    """SIGKILL one worker mid-run: its stale claims are stolen, its
    units re-execute from the checksummed shards, and the survivor's
    report is still byte-identical to the serial sweep."""
    serial = _serial()
    victim = _spawn_worker(0, tmp_path)
    deadline = time.monotonic() + 30.0
    tasks = tmp_path / "tasks"
    # let the victim claim real work before killing it
    while time.monotonic() < deadline:
        if tasks.is_dir() and any(tasks.iterdir()):
            break
        time.sleep(0.05)
    time.sleep(0.5)
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    victim.stdout.close()
    victim.stderr.close()
    survivor = _spawn_worker(1, tmp_path)
    payload = json.loads(_finish(survivor))
    assert payload["report"] == serial.report()


def test_work_dir_of_the_previous_layout_is_refused(tmp_path):
    """A spec written under the plan/speculate/replay layout (spec
    version 1) is refused, not misread as a unit chain."""
    old = spec_payload(POOL, COUNTS, CONFIG, **KW)
    del old["fingerprint"]
    old["version"] = 1
    old["fingerprint"] = params_fingerprint(old)
    ensure_spec(tmp_path, old)
    with pytest.raises(WorkDirMismatch, match="refusing to join"):
        run_distributed_sweep(POOL, COUNTS, CONFIG, work_dir=tmp_path,
                              **KW)


def test_clean_run_replays_nothing_and_a_steal_replays_one_unit(
        tmp_path):
    with collecting() as clean:
        run_distributed_sweep(POOL, COUNTS, CONFIG,
                              work_dir=tmp_path / "clean",
                              unit_blocks=2, **KW)
    assert (clean.snapshot().sched_replay_blocks,
            clean.snapshot().sched_steals) == (0, 0)
    # A worker died holding unit 0 of point 1: its claim went stale.
    work_dir = tmp_path / "stolen"
    ensure_spec(work_dir, spec_payload(POOL, COUNTS, CONFIG,
                                       unit_blocks=2, **KW))
    claim = work_dir / "tasks" / "unit-1-0.claim"
    claim.parent.mkdir()
    claim.write_text('{"owner": "dead"}')
    os.utime(claim, (time.time() - 60, time.time() - 60))
    with collecting() as stolen:
        stats = execute_work_dir(work_dir, stale_after=2.0, poll=0.01)
    assert stats["steals"] == 1
    assert stolen.snapshot().sched_replay_blocks == 2
    assert merge_work_dir(work_dir).report() == _serial().report()


def test_resume_mid_chain_restarts_from_the_published_boundary(tmp_path):
    """Reopen the last unit of every point of a finished dir: the rerun
    runs only those units, each from its predecessor's published
    boundary, and merges the serial bytes."""
    run_distributed_sweep(POOL, COUNTS, CONFIG, work_dir=tmp_path,
                          unit_blocks=2, **KW)
    tasks = tmp_path / "tasks"
    last = {}
    for marker in tasks.glob("unit-*.done"):
        _, point, unit = marker.stem.split("-")
        last[point] = max(last.get(point, 0), int(unit))
    assert min(last.values()) >= 1
    for point, unit in last.items():
        (tasks / f"unit-{point}-{unit}.done").unlink()
        (tasks / f"stitch-{point}.done").unlink()
    with collecting() as rerun:
        stats = execute_work_dir(tmp_path)
    assert sorted(stats["tasks"]) == sorted(
        [f"unit-{p}-{u}" for p, u in last.items()]
        + [f"stitch-{p}" for p in last])
    snap = rerun.snapshot()
    assert snap.sched_units == len(last)
    assert 0 < snap.stream_blocks <= 2 * len(last)
    assert merge_work_dir(tmp_path).report() == _serial().report()
