"""ShardStore durability: atomic writes, self-verifying reads,
fingerprint hygiene."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.observability import collecting
from repro.stream.shard import ShardStore, params_fingerprint

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def store(tmp_path):
    return ShardStore(tmp_path / "shards", params_fingerprint({"a": 1}))


def test_roundtrip(store):
    arrays = {"busy": np.array([1.5, 2.5, 3.5]),
              "empty": np.empty(0, dtype=np.float64)}
    meta = {"dropped": 7, "nested": {"x": [1, 2]}}
    with collecting() as stats:
        nbytes = store.put("checkpoint", arrays, meta)
    assert nbytes > 0
    # Every put is one counted spill of exactly the bytes it wrote.
    snapshot = stats.snapshot()
    assert snapshot.stream_spills == 1
    assert snapshot.stream_shard_bytes == nbytes
    loaded, loaded_meta = store.get("checkpoint")
    np.testing.assert_array_equal(loaded["busy"], arrays["busy"])
    assert loaded["empty"].size == 0
    assert loaded_meta == meta


def test_missing_key(store):
    assert store.get("nope") is None


def test_truncated_shard_detected_and_invalidated(store, tmp_path):
    store.put("checkpoint", {"busy": np.arange(100.0)}, {"n": 1})
    path = tmp_path / "shards" / "checkpoint.npz"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    assert store.get("checkpoint") is None
    # the read left the torn file alone: a fresh put replaces it
    assert path.read_bytes() == data[:len(data) // 2]
    store.put("checkpoint", {"busy": np.arange(3.0)}, {"n": 2})
    arrays, meta = store.get("checkpoint")
    assert meta == {"n": 2}


def test_corrupted_bytes_detected(store, tmp_path):
    store.put("final", {}, {"sessions": 5})
    path = tmp_path / "shards" / "final.npz"
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    path.write_bytes(bytes(payload))
    assert store.get("final") is None


def test_deleted_file_invalidates_entry(store, tmp_path):
    store.put("checkpoint", {"busy": np.arange(4.0)}, {})
    (tmp_path / "shards" / "checkpoint.npz").unlink()
    assert store.get("checkpoint") is None
    assert list((tmp_path / "shards").iterdir()) == []


def test_fingerprint_mismatch_discards_manifest(tmp_path):
    first = ShardStore(tmp_path / "s", params_fingerprint({"seed": 1}))
    first.put("final", {}, {"sessions": 10})
    other = ShardStore(tmp_path / "s", params_fingerprint({"seed": 2}))
    assert other.get("final") is None
    # same fingerprint still sees the shard
    again = ShardStore(tmp_path / "s", params_fingerprint({"seed": 1}))
    assert again.get("final") is not None


def test_a_shard_renamed_to_another_key_reads_as_absent(tmp_path):
    """The header binds a shard to its key: a file renamed to another
    key is absent under both names, although its digest still
    matches."""
    root = tmp_path / "s"
    store = ShardStore(root, "fp")
    store.put("unit-0000", {"x": np.arange(3.0)}, {})
    os.replace(root / "unit-0000.npz", root / "unit-0001.npz")
    assert store.get("unit-0001") is None
    assert store.get("unit-0000") is None
    os.replace(root / "unit-0001.npz", root / "unit-0000.npz")
    assert store.get("unit-0000") is not None


def test_put_leaves_one_file_per_key(store, tmp_path):
    """No manifest, no lock, no temp file: a put leaves exactly
    ``<key>.npz``, and a shard's size is the bytes put reports."""
    nbytes = store.put("checkpoint", {"busy": np.arange(3.0)}, {"n": 1})
    store.put("final", {}, {"n": 2})
    root = tmp_path / "shards"
    assert sorted(p.name for p in root.iterdir()) \
        == ["checkpoint.npz", "final.npz"]
    assert (root / "checkpoint.npz").stat().st_size == nbytes


def test_overwrite_updates_manifest(store):
    store.put("checkpoint", {"busy": np.arange(10.0)}, {"n": 1})
    store.put("checkpoint", {"busy": np.arange(2.0)}, {"n": 2})
    arrays, meta = store.get("checkpoint")
    assert arrays["busy"].size == 2
    assert meta == {"n": 2}


def test_params_fingerprint_is_order_insensitive():
    assert params_fingerprint({"a": 1, "b": 2}) \
        == params_fingerprint({"b": 2, "a": 1})
    assert params_fingerprint({"a": 1}) != params_fingerprint({"a": 2})


def test_two_writers_sharing_a_root_lose_no_keys(tmp_path):
    """Each key is its own file, so interleaved writes from two store
    instances (distinct keys, one directory) all survive."""
    fp = params_fingerprint({"a": 1})
    a = ShardStore(tmp_path / "shared", fp)
    b = ShardStore(tmp_path / "shared", fp)  # opened before a writes
    a.put("unit-0", {"x": np.arange(3.0)}, {"who": "a"})
    b.put("unit-1", {"x": np.arange(4.0)}, {"who": "b"})
    a.put("unit-2", {"x": np.arange(5.0)}, {"who": "a"})
    fresh = ShardStore(tmp_path / "shared", fp)
    for key, who, size in (("unit-0", "a", 3), ("unit-1", "b", 4),
                           ("unit-2", "a", 5)):
        arrays, meta = fresh.get(key)
        assert (meta["who"], arrays["x"].size) == (who, size)


def test_two_writers_hammering_threads_lose_no_keys(tmp_path):
    import threading

    fp = params_fingerprint({"a": 2})
    errors = []

    def writer(name, count):
        try:
            store = ShardStore(tmp_path / "shared", fp)
            for i in range(count):
                store.put(f"{name}-{i}", {"x": np.arange(2.0) + i},
                          {"i": i})
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(n, 8))
               for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    fresh = ShardStore(tmp_path / "shared", fp)
    for name in ("a", "b"):
        for i in range(8):
            arrays, meta = fresh.get(f"{name}-{i}")
            assert meta == {"i": i}
            np.testing.assert_array_equal(arrays["x"], np.arange(2.0) + i)


_PUTTER = r"""
import sys
import time
from pathlib import Path

import numpy as np

from repro.stream.shard import ShardStore, params_fingerprint

store = ShardStore(sys.argv[1], params_fingerprint({"a": 5}))
# Start together: neither writer may finish before the other begins.
ready = Path(sys.argv[2])
(ready / sys.argv[3]).touch()
deadline = time.monotonic() + 60.0
while len(list(ready.iterdir())) < 2 and time.monotonic() < deadline:
    time.sleep(0.001)
for i in range(30):
    store.put("unit-0000", {"x": np.arange(2000.0) + i}, {"i": i})
"""


def test_two_processes_writing_one_key_never_collide(tmp_path):
    """A stolen claim whose owner is still alive leaves two processes
    writing the same shard key; neither put may fail, and a read
    afterwards returns one writer's intact payload or nothing."""
    root, ready = tmp_path / "shared", tmp_path / "ready"
    ready.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC)
    writers = [subprocess.Popen([sys.executable, "-c", _PUTTER,
                                 str(root), str(ready), name],
                                stderr=subprocess.PIPE, text=True,
                                env=env)
               for name in ("a", "b")]
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
    got = ShardStore(root, params_fingerprint({"a": 5})).get("unit-0000")
    if got is not None:
        arrays, meta = got
        np.testing.assert_array_equal(arrays["x"],
                                      np.arange(2000.0) + meta["i"])
    assert not list(root.glob("*.tmp*"))
