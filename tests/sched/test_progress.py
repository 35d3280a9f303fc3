"""work_dir_progress and the WorkDirIncomplete merge contract: a
spec-with-zero-progress dir is 'pending', not a crash, and neither
read ever writes to the directory."""

import os

import numpy as np
import pytest

from repro.capacity.simulator import CapacityConfig
from repro.sched import (WorkDirIncomplete, ensure_spec,
                         execute_work_dir, merge_work_dir, spec_payload,
                         work_dir_progress)
from repro.stream.sweep import lognormal_pool


def _payload(users=(5, 9)):
    pool = lognormal_pool(size=16, seed=7)
    config = CapacityConfig(n_channels=8, mean_interval=2.0,
                            horizon=50.0, seed=11)
    return spec_payload(pool, list(users), config, seed=3)


def _snapshot(path):
    return sorted(os.path.join(root, name)
                  for root, dirs, files in os.walk(path)
                  for name in files)


def test_spec_only_dir_is_pending_and_read_only(tmp_path):
    """Progress on an untouched spec reports pending and — crucially —
    writes nothing: polling a job must never advance or perturb it."""
    work_dir = tmp_path / "wd"
    ensure_spec(work_dir, _payload())
    before = _snapshot(work_dir)

    progress = work_dir_progress(work_dir)
    assert progress["state"] == "pending"
    assert progress["points_total"] == 2
    assert progress["points_complete"] == 0
    assert [p["state"] for p in progress["points"]] == \
        ["pending", "pending"]
    assert _snapshot(work_dir) == before


def test_merge_on_pending_dir_raises_incomplete(tmp_path):
    work_dir = tmp_path / "wd"
    ensure_spec(work_dir, _payload())
    with pytest.raises(WorkDirIncomplete) as caught:
        merge_work_dir(work_dir)
    assert "pending" in str(caught.value)
    assert caught.value.progress["state"] == "pending"


def test_progress_tracks_execution_to_complete(tmp_path):
    work_dir = tmp_path / "wd"
    payload = _payload()
    ensure_spec(work_dir, payload)
    execute_work_dir(work_dir, worker_id="t0", worker_index=0,
                     poll=0.01, heartbeat_interval=0.2,
                     stale_after=2.0)
    progress = work_dir_progress(work_dir)
    assert progress["state"] == "complete"
    assert progress["points_complete"] == progress["points_total"] == 2
    assert all(p["state"] == "complete" for p in progress["points"])
    assert progress["fingerprint"] == payload["fingerprint"]

    result = merge_work_dir(work_dir)
    assert [p.n_users for p in result.points] == [5, 9]


def test_progress_is_pure_after_completion_too(tmp_path):
    work_dir = tmp_path / "wd"
    ensure_spec(work_dir, _payload())
    execute_work_dir(work_dir, worker_id="t0", worker_index=0,
                     poll=0.01, heartbeat_interval=0.2,
                     stale_after=2.0)
    before = _snapshot(work_dir)
    work_dir_progress(work_dir)
    assert _snapshot(work_dir) == before


def _file_bytes(path):
    return {os.path.join(root, name):
            open(os.path.join(root, name), "rb").read()
            for root, dirs, files in os.walk(path) for name in files}


@pytest.mark.parametrize("damaged", ["unit-0000", "point"])
def test_progress_and_merge_never_write_over_a_damaged_shard(tmp_path,
                                                             damaged):
    """Polling a finished dir whose shard was damaged afterwards must
    not repair, rewrite or drop anything: every file keeps its bytes
    through ``work_dir_progress`` and ``merge_work_dir``."""
    work_dir = tmp_path / "wd"
    ensure_spec(work_dir, _payload())
    execute_work_dir(work_dir, worker_id="t0", worker_index=0,
                     poll=0.01, heartbeat_interval=0.2,
                     stale_after=2.0)
    (shard,) = sorted(work_dir.glob(f"shards/point-9-*/{damaged}.npz"))
    shard.write_bytes(shard.read_bytes()[:10])
    before = _file_bytes(work_dir)

    progress = work_dir_progress(work_dir)
    assert progress["state"] == "complete"
    if damaged == "point":
        with pytest.raises(WorkDirIncomplete):
            merge_work_dir(work_dir)
    else:
        assert progress["points"][1]["units_total"] is None
        assert [p.n_users for p in merge_work_dir(work_dir).points] \
            == [5, 9]
    assert _file_bytes(work_dir) == before
