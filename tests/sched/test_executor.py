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
from repro.sched import (WorkDirMismatch, ensure_spec, execute_work_dir,
                         merge_work_dir, run_distributed_sweep,
                         spec_payload)
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
