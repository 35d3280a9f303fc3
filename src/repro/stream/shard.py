"""Spill-to-disk npz shards with a JSON manifest.

A :class:`ShardStore` is the durability layer of a :mod:`repro.sched`
work dir: each point's plan, unit results and stitched point spill to
compressed ``.npz`` files under one root directory, indexed by a
``manifest.json`` that records a sha256 per shard.  Every ``put``
counts one ``stream_spills`` and its bytes in ``stream_shard_bytes``.
The design goals, in order:

- **crash safety** — every write goes to a per-writer temp file and
  lands with ``os.replace``, so a kill mid-write leaves either the old
  shard or none, never a torn one, and two writers of one key never
  share a temp file; the manifest is rewritten the same way after the
  shard it references exists;
- **self-verifying reads** — ``get`` re-hashes the shard bytes against
  the manifest; a truncated or corrupted file (or a manifest entry
  whose file vanished) invalidates that key and returns ``None``, which
  the executor treats as "re-run the task that wrote it";
- **parameter hygiene** — the store carries a caller-supplied
  ``fingerprint`` of the run parameters; opening a root whose manifest
  was written under a different fingerprint discards it wholesale
  rather than resuming someone else's run;
- **concurrent writers** — two stores sharing a directory (the
  distributed executor writes one shard per work unit into a single
  per-point root) serialise manifest updates through a claim-file lock
  and re-read the manifest inside the critical section, so an update
  never silently drops a key another writer just published.  A live
  lock that cannot be acquired within the timeout raises
  :class:`ShardContentionError` instead of racing; a lock whose holder
  died is stolen once its age passes ``lock_stale_after``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import uuid
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.runtime import lease
from repro.runtime.observability import KERNEL_STATS

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1


class ShardContentionError(RuntimeError):
    """A live writer holds the manifest lock and would not let go."""


def params_fingerprint(params: dict) -> str:
    """Stable sha256 hex digest of a JSON-serialisable parameter dict."""
    payload = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ShardStore:
    """Content-verified key/value store of npz shards in one directory."""

    def __init__(self, root, fingerprint: str, *,
                 lock_timeout: float = 10.0,
                 lock_stale_after: float = 5.0):
        self.root = Path(root)
        self.fingerprint = str(fingerprint)
        self.lock_timeout = float(lock_timeout)
        self.lock_stale_after = float(lock_stale_after)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / _MANIFEST_NAME
        self._lock_path = self.root / (_MANIFEST_NAME + ".lock")
        self._shards: Dict[str, dict] = {}
        self._load_manifest()

    def _load_manifest(self) -> None:
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as f:
                manifest = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            return
        if not isinstance(manifest, dict):
            return
        if manifest.get("version") != _MANIFEST_VERSION:
            return
        if manifest.get("fingerprint") != self.fingerprint:
            # Different run parameters: never resume across them.
            return
        shards = manifest.get("shards")
        if isinstance(shards, dict):
            self._shards = shards

    def _write_manifest(self) -> None:
        manifest = {
            "version": _MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "shards": self._shards,
        }
        data = json.dumps(manifest, indent=2, sort_keys=True)
        _atomic_write(self._manifest_path, data.encode("utf-8"))

    def _mutate_manifest(self, mutate) -> None:
        """Apply ``mutate(shards)`` under the manifest writer lock.

        The manifest is re-read from disk inside the critical section:
        with several writers on one root, the in-memory copy may
        predate keys another process published, and a blind rewrite
        would drop them (the silent last-writer-wins race this lock
        exists to kill).
        """
        owner = f"pid-{os.getpid()}"
        if not lease.acquire_blocking(
                self._lock_path, owner, timeout=self.lock_timeout,
                stale_after=self.lock_stale_after):
            raise ShardContentionError(
                f"manifest lock at {self._lock_path} held by "
                f"{lease.claim_owner(self._lock_path)!r} for longer "
                f"than {self.lock_timeout}s")
        try:
            self._shards = {}
            self._load_manifest()
            mutate(self._shards)
            self._write_manifest()
        finally:
            lease.release(self._lock_path)

    def keys(self):
        return sorted(self._shards)

    def put(self, key: str, arrays: Dict[str, np.ndarray],
            meta: Optional[dict] = None) -> int:
        """Write a shard; returns its size in bytes.

        ``arrays`` spill into the npz payload; ``meta`` (JSON-safe)
        rides in the manifest entry so readers get it without touching
        the npz.  Overwrites any previous shard under ``key``.
        """
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        data = buffer.getvalue()
        filename = f"{key}.npz"
        _atomic_write(self.root / filename, data)
        entry = {
            "file": filename,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "meta": meta if meta is not None else {},
        }
        self._mutate_manifest(lambda shards: shards.update({key: entry}))
        KERNEL_STATS.add(stream_spills=1, stream_shard_bytes=len(data))
        return len(data)

    def get(self, key: str
            ) -> Optional[Tuple[Dict[str, np.ndarray], dict]]:
        """Read a shard back, or ``None`` if absent or damaged.

        A checksum mismatch or missing file drops the manifest entry
        (so a later ``put`` starts clean) and returns ``None``.
        """
        entry = self._shards.get(key)
        if entry is None:
            return None
        path = self.root / entry["file"]
        try:
            data = path.read_bytes()
        except OSError:
            self._invalidate(key)
            return None
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            self._invalidate(key)
            return None
        with np.load(io.BytesIO(data)) as payload:
            arrays = {name: payload[name] for name in payload.files}
        return arrays, entry.get("meta", {})

    def _invalidate(self, key: str) -> None:
        self._mutate_manifest(lambda shards: shards.pop(key, None))
