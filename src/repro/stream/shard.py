"""Self-verifying npz shards, one file per key.

A :class:`ShardStore` is the durability layer of a :mod:`repro.sched`
work dir: each point's unit results and stitched point spill to one
``<key>.npz`` file each under one root directory.  A shard file is the
sha256 digest of its body followed by the body: the compressed npz of
the arrays plus a reserved JSON header member carrying the store's
``fingerprint``, the shard's ``key`` and its ``meta``.  Every ``put``
counts one ``stream_spills`` and its bytes in ``stream_shard_bytes``.
The design goals, in order:

- **crash safety** — every write goes to a per-writer temp file, is
  fsynced and lands with ``os.replace``, so a kill mid-write leaves
  either the old shard or none, never a torn one, and two writers of
  one key never share a temp file;
- **self-verifying, pure reads** — ``get`` re-hashes the body against
  the digest the file carries; a missing, truncated or corrupted file
  returns ``None``, which the executor treats as "re-run the task that
  wrote it".  Reading never writes;
- **parameter hygiene** — the store carries a caller-supplied
  ``fingerprint`` of the run parameters; a shard written under another
  fingerprint, or under another key (a renamed file), reads as absent
  rather than resuming someone else's run;
- **concurrent writers** — each key is its own file and there is no
  shared index, so writers of distinct keys in one root never touch
  the same file, and writers of one key race only on ``os.replace``,
  where the last complete shard wins.
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

from repro.runtime.observability import KERNEL_STATS

#: The npz member holding the JSON header.
_HEADER = "__shard__"


def params_fingerprint(params: dict) -> str:
    """Stable sha256 hex digest of a JSON-serialisable parameter dict."""
    payload = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a per-writer temp file, fsync
    it and publish it with ``os.replace``."""
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ShardStore:
    """Content-verified key/value store of npz shards in one directory."""

    def __init__(self, root, fingerprint: str):
        self.root = Path(root)
        self.fingerprint = str(fingerprint)

    def put(self, key: str, arrays: Dict[str, np.ndarray],
            meta: Optional[dict] = None) -> int:
        """Write a shard; returns its size in bytes.

        ``arrays`` spill into the npz payload; ``meta`` (JSON-safe)
        rides in the shard's header.  Overwrites any previous shard
        under ``key``.
        """
        header = json.dumps({"fingerprint": self.fingerprint, "key": key,
                             "meta": meta if meta is not None else {}},
                            sort_keys=True).encode("utf-8")
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays, **{
            _HEADER: np.frombuffer(header, dtype=np.uint8)})
        body = buffer.getvalue()
        data = hashlib.sha256(body).digest() + body
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(self.root / f"{key}.npz", data)
        KERNEL_STATS.add(stream_spills=1, stream_shard_bytes=len(data))
        return len(data)

    def get(self, key: str
            ) -> Optional[Tuple[Dict[str, np.ndarray], dict]]:
        """Read a shard back, or ``None`` if it is missing, damaged, or
        was written under another fingerprint or key."""
        try:
            data = (self.root / f"{key}.npz").read_bytes()
        except OSError:
            return None
        digest, body = data[:32], data[32:]
        if hashlib.sha256(body).digest() != digest:
            return None
        with np.load(io.BytesIO(body)) as payload:
            arrays = {name: payload[name] for name in payload.files}
        header = json.loads(arrays.pop(_HEADER).tobytes())
        if header["fingerprint"] != self.fingerprint \
                or header["key"] != key:
            return None
        return arrays, header["meta"]
