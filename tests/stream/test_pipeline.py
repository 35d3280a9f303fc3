"""stream_capacity_run vs CapacitySimulator.run: identical results,
durable checkpoints, honest counters."""

import numpy as np
import pytest

import repro.stream.pipeline as pipeline_module
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.runtime.observability import collecting
from repro.stream.aggregate import ServiceAggregate
from repro.stream.pipeline import stream_capacity_run
from repro.stream.shard import ShardStore, params_fingerprint


@pytest.fixture(scope="module")
def simulator():
    rng = np.random.default_rng(7)
    pool = rng.lognormal(np.log(14.0), 0.5, size=400)
    return CapacitySimulator(
        pool, CapacityConfig(n_channels=50, horizon=1800.0, seed=11))


def _inline_blocks(source, queue_depth):
    """``_iter_blocks`` without the producer thread: blocks drawn in
    the consumer, in the same order, with the same resume states."""
    for arrivals, services in source.blocks():
        yield arrivals, services, source.state()


@pytest.mark.parametrize("block_arrivals", [333, 1000, 65536])
@pytest.mark.parametrize("threaded", [True, False])
def test_matches_in_memory_run(simulator, block_arrivals, threaded,
                               monkeypatch):
    if not threaded:
        monkeypatch.setattr(pipeline_module, "_iter_blocks",
                            _inline_blocks)
    for n_users, seed in ((40, 5), (120, 99), (120, None)):
        reference = simulator.run(n_users, seed=seed)
        streamed = stream_capacity_run(simulator, n_users, seed,
                                       block_arrivals=block_arrivals)
        assert streamed == reference


def test_aggregate_equals_materialised_fold(simulator):
    aggregate = ServiceAggregate()
    stream_capacity_run(simulator, 120, 99, block_arrivals=1000,
                        aggregate=aggregate)
    _, services = simulator.draw(120, np.random.default_rng(99))
    assert aggregate == ServiceAggregate().add_block(services)


def _interrupted_run(simulator, store, kill_at, with_aggregate=True,
                     monkeypatch=None):
    """Run with ``store`` but die (KeyboardInterrupt) at the
    ``kill_at``-th block — a simulated mid-run kill."""
    calls = {"n": 0}
    original = pipeline_module.resolve_drops_block

    def bomb(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == kill_at:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "resolve_drops_block", bomb)
    try:
        with pytest.raises(KeyboardInterrupt):
            stream_capacity_run(
                simulator, 120, 99, block_arrivals=1000, store=store,
                checkpoint_every=2,
                aggregate=ServiceAggregate() if with_aggregate
                else None)
    finally:
        monkeypatch.setattr(pipeline_module, "resolve_drops_block",
                            original)


def test_kill_and_resume_is_bit_identical(simulator, tmp_path,
                                          monkeypatch):
    fingerprint = params_fingerprint({"n_users": 120, "seed": 99})
    store = ShardStore(tmp_path / "pt", fingerprint)
    _interrupted_run(simulator, store, kill_at=7,
                     monkeypatch=monkeypatch)

    reference = simulator.run(120, seed=99)
    _, services = simulator.draw(120, np.random.default_rng(99))
    aggregate = ServiceAggregate()
    with collecting() as stats:
        resumed = stream_capacity_run(
            simulator, 120, 99, block_arrivals=1000,
            store=ShardStore(tmp_path / "pt", fingerprint),
            checkpoint_every=2, aggregate=aggregate)
    assert resumed == reference
    assert aggregate == ServiceAggregate().add_block(services)
    # resume really skipped the first blocks (checkpoint at block 6)
    total_blocks = -(-resumed.sessions // 1000)
    assert 0 < stats.snapshot().stream_blocks < total_blocks

    # a third run hits the final shard and streams nothing at all
    with collecting() as stats:
        again = stream_capacity_run(
            simulator, 120, 99, block_arrivals=1000,
            store=ShardStore(tmp_path / "pt", fingerprint),
            aggregate=ServiceAggregate())
    assert again == reference
    assert stats.snapshot().stream_blocks == 0


def test_truncated_checkpoint_restarts_clean(simulator, tmp_path,
                                             monkeypatch):
    fingerprint = params_fingerprint({"n_users": 120, "seed": 99})
    store = ShardStore(tmp_path / "pt", fingerprint)
    _interrupted_run(simulator, store, kill_at=7,
                     monkeypatch=monkeypatch)
    path = tmp_path / "pt" / "checkpoint.npz"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])

    resumed = stream_capacity_run(
        simulator, 120, 99, block_arrivals=1000,
        store=ShardStore(tmp_path / "pt", fingerprint),
        checkpoint_every=2)
    assert resumed == simulator.run(120, seed=99)


def test_aggregate_less_checkpoint_not_reused_with_aggregate(
        simulator, tmp_path, monkeypatch):
    """A checkpoint written without an aggregate must not serve a run
    that wants one — it would silently return a partial fold."""
    fingerprint = params_fingerprint({"n_users": 120, "seed": 99})
    store = ShardStore(tmp_path / "pt", fingerprint)
    _interrupted_run(simulator, store, kill_at=7, with_aggregate=False,
                     monkeypatch=monkeypatch)
    aggregate = ServiceAggregate()
    stream_capacity_run(simulator, 120, 99, block_arrivals=1000,
                        store=ShardStore(tmp_path / "pt", fingerprint),
                        checkpoint_every=2, aggregate=aggregate)
    _, services = simulator.draw(120, np.random.default_rng(99))
    assert aggregate == ServiceAggregate().add_block(services)


def test_counters_report_blocks_and_spills(simulator, tmp_path):
    fingerprint = params_fingerprint({"n_users": 80, "seed": 3})
    with collecting() as stats:
        result = stream_capacity_run(
            simulator, 80, 3, block_arrivals=1000,
            store=ShardStore(tmp_path / "pt", fingerprint),
            checkpoint_every=2, aggregate=ServiceAggregate())
    snapshot = stats.snapshot()
    expected_blocks = -(-result.sessions // 1000)
    assert snapshot.stream_blocks == expected_blocks
    # periodic checkpoints plus the final shard
    assert snapshot.stream_spills == expected_blocks // 2 + 1
    assert snapshot.stream_shard_bytes > 0
    assert snapshot.stream_peak_carried_bytes > 0
    # dict/merge plumbing carries the stream fields
    merged = snapshot.merged(snapshot)
    assert merged.stream_blocks == 2 * snapshot.stream_blocks
    assert merged.stream_peak_carried_bytes \
        == snapshot.stream_peak_carried_bytes
    assert "stream_blocks" in snapshot.to_dict()


def test_producer_exception_propagates(simulator, monkeypatch):
    from repro.stream import source as source_module

    def explode(self):
        raise RuntimeError("draw failed")
        yield  # pragma: no cover

    monkeypatch.setattr(source_module.ArrivalBlockSource, "blocks",
                        explode)
    with pytest.raises(RuntimeError, match="draw failed"):
        stream_capacity_run(simulator, 40, 5)


def test_validation(simulator):
    with pytest.raises(ValueError):
        stream_capacity_run(simulator, 0)
    with pytest.raises(ValueError):
        stream_capacity_run(simulator, 10, checkpoint_every=0)
