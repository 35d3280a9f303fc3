"""The block loop of ``sweep_point`` vs the whole-array reference
(``tests/oracles/capacity.py``) and ``CapacitySimulator.run``:
identical results, honest counters."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.runtime.observability import collecting
from repro.stream.aggregate import ServiceAggregate
from repro.stream.sweep import StreamPoint, sweep_point
from tests.oracles.capacity import draw, in_memory_point


@pytest.fixture(scope="module")
def simulator():
    rng = np.random.default_rng(7)
    pool = rng.lognormal(np.log(14.0), 0.5, size=400)
    return CapacitySimulator(
        pool, CapacityConfig(n_channels=50, horizon=1800.0, seed=11))


@pytest.mark.parametrize("block_arrivals", [333, 1000, 65536])
@pytest.mark.parametrize("counted", [True, False])
def test_matches_in_memory_run(simulator, block_arrivals, counted):
    """Under a ``collecting()`` window or not, the streamed point is
    the in-memory one; the window sees one block per
    ``block_arrivals`` sessions."""
    for n_users, seed in ((40, 5), (120, 99), (120, None)):
        reference = simulator.run(n_users, seed=seed)
        # ``seed=None`` means the config seed on every path.
        point_seed = simulator.config.seed if seed is None else seed
        with collecting() if counted else nullcontext() as stats:
            streamed = sweep_point(simulator, n_users, point_seed,
                                   block_arrivals=block_arrivals)
        in_memory = in_memory_point(simulator, n_users, point_seed)
        assert streamed == in_memory
        assert (streamed.sessions, streamed.dropped) \
            == (reference.sessions, reference.dropped)
        if counted:
            assert stats.snapshot().stream_blocks \
                == -(-streamed.sessions // block_arrivals)


def test_aggregate_equals_materialised_fold(simulator, monkeypatch):
    """The streamed loop folds every service draw: its aggregate is
    the materialised array's, not just equal summary statistics."""
    folded = []
    from_parts = StreamPoint.from_parts.__func__

    def spy(cls, n_users, seed, sessions, dropped, aggregate):
        folded.append(aggregate)
        return from_parts(cls, n_users, seed, sessions, dropped,
                          aggregate)

    monkeypatch.setattr(StreamPoint, "from_parts", classmethod(spy))
    sweep_point(simulator, 120, 99, block_arrivals=1000)
    _, services = draw(simulator.service_times, 120, simulator.config, 99)
    assert folded == [ServiceAggregate().add_block(services)]


def test_counters_report_blocks_and_spills(simulator):
    with collecting() as stats:
        point = sweep_point(simulator, 80, 3, block_arrivals=1000)
    snapshot = stats.snapshot()
    expected_blocks = -(-point.sessions // 1000)
    assert snapshot.stream_blocks == expected_blocks
    # The serial sweep keeps nothing on disk.
    assert snapshot.stream_spills == 0
    assert snapshot.stream_shard_bytes == 0
    assert snapshot.stream_peak_carried_bytes > 0
    # dict/merge plumbing carries the stream fields
    merged = snapshot.merged(snapshot)
    assert merged.stream_blocks == 2 * snapshot.stream_blocks
    assert merged.stream_peak_carried_bytes \
        == snapshot.stream_peak_carried_bytes
    assert "stream_blocks" in snapshot.to_dict()


def test_validation(simulator):
    with pytest.raises(ValueError):
        sweep_point(simulator, 0, 5)
    with pytest.raises(ValueError):
        sweep_point(simulator, 10, 5, block_arrivals=0)
