"""Claim-file lease protocol: acquire, contend, heartbeat, steal."""

import os
import time

from repro.runtime import lease


def test_first_claim_wins(tmp_path):
    path = tmp_path / "task.claim"
    assert lease.try_claim(path, "a")
    assert path.exists()
    assert lease.claim_owner(path) == "a"
    # a live claim cannot be taken by anyone else
    assert not lease.try_claim(path, "b")
    assert lease.claim_owner(path) == "a"


def test_release_frees_the_claim(tmp_path):
    path = tmp_path / "task.claim"
    assert lease.try_claim(path, "a")
    lease.release(path)
    assert not path.exists()
    lease.release(path)  # idempotent
    assert lease.try_claim(path, "b")
    assert lease.claim_owner(path) == "b"


def test_stale_claim_is_stolen(tmp_path):
    path = tmp_path / "task.claim"
    assert lease.try_claim(path, "a")
    # back-date the holder's last heartbeat far past the horizon
    old = time.time() - 1000.0
    os.utime(path, (old, old))
    assert lease.try_claim(path, "b", stale_after=60.0)
    assert lease.claim_owner(path) == "b"
    # no tombstone litter
    assert list(tmp_path.glob("*.stale-*")) == []


def test_fresh_claim_is_not_stolen(tmp_path):
    path = tmp_path / "task.claim"
    assert lease.try_claim(path, "a")
    assert not lease.try_claim(path, "b", stale_after=60.0)
    assert lease.claim_owner(path) == "a"


def test_heartbeat_keeps_claim_fresh(tmp_path):
    path = tmp_path / "task.claim"
    assert lease.try_claim(path, "a")
    old = time.time() - 1000.0
    os.utime(path, (old, old))
    assert lease.heartbeat(path)
    assert time.time() - path.stat().st_mtime < 60.0
    assert not lease.try_claim(path, "b", stale_after=60.0)


def test_heartbeat_reports_lost_lease(tmp_path):
    path = tmp_path / "task.claim"
    assert not lease.heartbeat(path)  # never acquired
    assert lease.try_claim(path, "a")
    with lease.Heartbeat(path, interval=0.01) as beat:
        time.sleep(0.05)
        assert not beat.lost
        os.remove(path)  # stolen from under the holder
        deadline = time.monotonic() + 2.0
        while not beat.lost and time.monotonic() < deadline:
            time.sleep(0.01)
    assert beat.lost

