"""The chunked source must be draw-for-draw identical to the
whole-array draw of ``tests/oracles/capacity.py`` — same values, same
RNG consumption, any chunking."""

import json

import numpy as np
import pytest

from repro.capacity.simulator import ArrivalBlockSource, CapacityConfig
from tests.oracles.capacity import draw


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(7)
    return rng.lognormal(np.log(14.0), 0.5, size=400)


def _assert_blocks_equal_draw(pool, n_users, config, seed,
                              block_arrivals):
    ref_arrivals, ref_services = draw(pool, n_users, config, seed)
    source = ArrivalBlockSource(pool, n_users, config=config, seed=seed,
                                block_arrivals=block_arrivals)
    chunks = list(source.blocks())
    arrivals = np.concatenate([a for a, _ in chunks])
    services = np.concatenate([s for _, s in chunks])
    np.testing.assert_array_equal(arrivals, ref_arrivals)
    np.testing.assert_array_equal(services, ref_services)
    assert source.n_sessions == ref_arrivals.size
    assert all(a.size == s.size for a, s in chunks)
    assert max(a.size for a, _ in chunks) <= block_arrivals


# 4,096 is the block every CapacitySimulator run and search probe
# streams; 65,536 is the sweep default.
@pytest.mark.parametrize("block_arrivals", [1, 7, 1000, 4096, 65536])
@pytest.mark.parametrize("n_users,seed", [(40, 3), (120, None)])
def test_blocks_concatenate_to_materialised_draw(pool, n_users, seed,
                                                 block_arrivals):
    config = CapacityConfig(n_channels=50, horizon=1800.0, seed=11)
    _assert_blocks_equal_draw(pool, n_users, config, seed,
                              block_arrivals)


@pytest.mark.parametrize("block_arrivals", [1, 7, 4096, 65536])
@pytest.mark.parametrize("pool_size", [20, 2])
def test_small_pools_concatenate_to_materialised_draw(pool, pool_size,
                                                      block_arrivals):
    """The pools the benchmark chain (20 page loads) and the serving
    layer's hold pools (2 values) draw services from, over a stream
    of several 4,096-arrival blocks."""
    config = CapacityConfig(n_channels=50, horizon=1800.0, seed=11)
    _assert_blocks_equal_draw(pool[:pool_size], 300, config, 5,
                              block_arrivals)


def test_state_roundtrips_through_json_and_resumes(pool):
    """Kill-and-resume: a snapshot taken mid-stream, serialised to JSON
    and restored into a fresh source, reproduces the remaining blocks
    bit for bit."""
    config = CapacityConfig(n_channels=50, horizon=1800.0, seed=11)
    source = ArrivalBlockSource(pool, 90, config=config, seed=5,
                                block_arrivals=500)
    blocks = source.blocks()
    consumed = [next(blocks) for _ in range(3)]
    assert len(consumed) == 3
    snapshot = json.loads(json.dumps(source.state()))

    resumed = ArrivalBlockSource(pool, 90, config=config, seed=5,
                                 block_arrivals=500)
    resumed.restore(snapshot)
    rest_resumed = list(resumed.blocks())
    rest_original = list(blocks)
    assert len(rest_resumed) == len(rest_original)
    for (a1, s1), (a2, s2) in zip(rest_resumed, rest_original):
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(s1, s2)


def test_scan_is_idempotent(pool):
    config = CapacityConfig(horizon=600.0, seed=11)
    source = ArrivalBlockSource(pool, 50, config=config, seed=1)
    assert source.scan() == source.scan() == source.n_sessions


def test_state_before_scan_raises(pool):
    source = ArrivalBlockSource(pool, 50, seed=1)
    with pytest.raises(RuntimeError):
        source.state()


def test_validation(pool):
    with pytest.raises(ValueError):
        ArrivalBlockSource(pool, 0)
    with pytest.raises(ValueError):
        ArrivalBlockSource(pool, 10, block_arrivals=0)
