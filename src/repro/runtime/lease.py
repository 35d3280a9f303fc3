"""Claim-file leases over a shared directory.

The distributed sweep executor (:mod:`repro.sched`) coordinates its
workers through plain files on a directory every participant can see
— no coordinator process, no sockets.  The primitive is a *claim
file*:

- **acquire** — ``O_CREAT | O_EXCL`` of ``<name>.claim`` with a JSON
  payload naming the owner.  Exactly one creator wins; everyone else
  sees ``FileExistsError``.
- **heartbeat** — the holder touches the claim's mtime periodically
  (:class:`Heartbeat` runs a daemon thread).  A claim whose mtime is
  older than ``stale_after`` is presumed dead.
- **steal** — a stale claim is first *renamed* to a unique tombstone
  (atomic, so exactly one stealer wins the rename) and then
  re-acquired with ``O_EXCL``.  A holder that was merely paused
  discovers the theft on its next heartbeat — ``utime`` on the renamed
  path raises — and must treat the lease as lost.
- **release** — unlink the claim.

Staleness compares the reader's clock against the holder's mtime, so
cross-host use assumes a shared filesystem with loosely agreeing
clocks (the executor's defaults leave minutes of slack).  Everything a
lease protects must stay idempotent: a zombie holder can race the
stealer for a short window, and the protocol only guarantees the work
is re-executed, not executed once.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Optional

#: Default staleness horizon — ten missed heartbeats at the default rate.
DEFAULT_STALE_AFTER = 30.0
DEFAULT_HEARTBEAT = 3.0


def _claim_payload(owner: str) -> bytes:
    return json.dumps({
        "owner": str(owner),
        "pid": os.getpid(),
        "claimed_at": time.time(),
    }, sort_keys=True).encode("utf-8")


def try_claim(path, owner: str, *,
              stale_after: float = DEFAULT_STALE_AFTER) -> bool:
    """Try to acquire the claim file at ``path``; never blocks.

    Returns ``True`` when this call created the claim (fresh or by
    stealing a stale one), ``False`` when someone else holds it.
    """
    path = Path(path)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_claim_payload(owner))
        return True
    # Held by someone: steal only if their heartbeat went stale.
    try:
        age = time.time() - path.stat().st_mtime
    except OSError:
        # Released or stolen between our open and stat; next call
        # races cleanly for the fresh file.
        return False
    if age <= stale_after:
        return False
    tombstone = path.with_name(
        f"{path.name}.stale-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    try:
        os.rename(path, tombstone)
    except OSError:
        # Another stealer renamed it first (or the holder released).
        return False
    try:
        os.remove(tombstone)
    except OSError:
        pass
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        # A third party re-claimed in the window after our rename.
        return False
    with os.fdopen(fd, "wb") as handle:
        handle.write(_claim_payload(owner))
    return True


def heartbeat(path) -> bool:
    """Refresh the claim's mtime; ``False`` means the lease was lost."""
    try:
        os.utime(path)
    except OSError:
        return False
    return True


def release(path) -> None:
    """Drop the claim (idempotent)."""
    try:
        os.remove(path)
    except OSError:
        pass


def claim_owner(path) -> Optional[str]:
    """Owner recorded in a claim file, or ``None`` if unreadable."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    owner = payload.get("owner") if isinstance(payload, dict) else None
    return str(owner) if owner is not None else None


class Heartbeat:
    """Context manager touching a held claim from a daemon thread.

    ``lost`` flips to ``True`` if a touch ever fails — the claim was
    stolen from under us — at which point the thread stops and the
    holder should abandon (not publish) its work where possible.
    """

    def __init__(self, path, interval: float = DEFAULT_HEARTBEAT):
        self.path = Path(path)
        self.interval = float(interval)
        self.lost = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not heartbeat(self.path):
                self.lost = True
                return

    def __enter__(self) -> "Heartbeat":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

