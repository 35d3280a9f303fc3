"""Golden gates: a served prediction is byte-identical to the offline
evaluator and the direct capacity simulator, batched or not."""

import json

import numpy as np
import pytest

from repro.ablation.engine import spec_seed
from repro.ablation.objective import evaluate_setup, variant_hold_pool
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.serve.schema import PredictRequest
from repro.serve.service import (WhatIfService, predict_eval_seed,
                                 predict_run_id)
from tests.oracles.capacity import in_memory_point

#: Small but non-trivial: a real congested cell, two default pages.
PAYLOAD = {"n_users": 40, "n_channels": 30, "horizon": 300.0,
           "mean_interval": 8.0, "profile": "congested",
           "setup": {"predictor": "gbrt-like"}}


@pytest.fixture(scope="module")
def request_obj() -> PredictRequest:
    return PredictRequest.from_payload(PAYLOAD)


@pytest.fixture(scope="module")
def response(request_obj):
    service = WhatIfService(batch_window=0.0)
    try:
        return service.predict(request_obj)
    finally:
        service.close()


def test_run_id_and_seed_are_deterministic(request_obj):
    twin = PredictRequest.from_payload(dict(PAYLOAD))
    assert predict_run_id(twin) == predict_run_id(request_obj)
    assert predict_eval_seed(twin) == \
        spec_seed(predict_run_id(request_obj))


def test_metrics_match_offline_evaluator_exactly(request_obj, response):
    """The served metrics dict IS evaluate_setup's — same keys, same
    bytes — for the population-bearing scenario the request denotes."""
    golden = evaluate_setup(request_obj.setup(),
                            request_obj.scenario(with_population=True),
                            predict_eval_seed(request_obj))
    assert response["metrics"] == golden


def test_capacity_matches_direct_simulator(request_obj, response):
    """The capacity section reproduces a hand-built CapacitySimulator
    run seeded by the evaluator's recipe, byte for byte."""
    eval_seed = predict_eval_seed(request_obj)
    pool = variant_hold_pool(request_obj.setup(),
                             request_obj.scenario())
    config = CapacityConfig(n_channels=PAYLOAD["n_channels"],
                            mean_interval=PAYLOAD["mean_interval"],
                            horizon=PAYLOAD["horizon"],
                            seed=eval_seed)
    simulator = CapacitySimulator(pool, config)
    capacity_seed = int(np.random.SeedSequence(
        eval_seed, spawn_key=(1,)).generate_state(1)[0])

    direct = simulator.run(PAYLOAD["n_users"], seed=capacity_seed)
    assert response["capacity"]["sessions"] == direct.sessions
    assert response["capacity"]["dropped"] == direct.dropped
    assert response["capacity"]["drop_probability"] == \
        direct.drop_probability
    assert response["metrics"]["drop_probability"] == \
        direct.drop_probability

    point = in_memory_point(simulator, PAYLOAD["n_users"], capacity_seed)
    assert response["capacity"] == point.to_dict()


def test_response_is_json_serialisable(response):
    encoded = json.dumps(response, sort_keys=True)
    assert json.loads(encoded) == json.loads(encoded)


def _dumps(response):
    return json.dumps(response, sort_keys=True)


def test_batched_equals_unbatched_byte_for_byte(response):
    """A round's composition never shows in its answers: one
    ``_compute_batch`` over [a, b, a] answers each request with the
    bytes it gets alone, and alone equals the inline path's bytes."""
    payloads = [
        dict(PAYLOAD),
        {"n_users": 25, "n_channels": 30, "horizon": 300.0,
         "mean_interval": 8.0, "profile": "congested"},
        dict(PAYLOAD),  # the same request twice in one round
    ]
    requests = [PredictRequest.from_payload(p) for p in payloads]

    service = WhatIfService()
    try:
        batched = service._compute_batch(requests)
        alone = [service._compute_batch([request])[0]
                 for request in requests]
    finally:
        service.close()
    assert [_dumps(got) for got in batched] == \
        [_dumps(want) for want in alone]
    assert _dumps(batched[0]) == _dumps(response)


def test_distinct_scenarios_answer_independently():
    """Scenario grouping must not leak one profile's metrics into
    another's response when both ride one round."""
    service = WhatIfService()
    a = PredictRequest.from_payload(
        {"n_users": 20, "n_channels": 25, "horizon": 200.0,
         "profile": "ideal"})
    b = PredictRequest.from_payload(
        {"n_users": 20, "n_channels": 25, "horizon": 200.0,
         "profile": "cell_edge"})
    try:
        out = dict(zip("ab", service._compute_batch([a, b])))
    finally:
        service.close()

    assert out["a"]["run_id"] != out["b"]["run_id"]
    for tag, request in (("a", a), ("b", b)):
        golden = evaluate_setup(request.setup(),
                                request.scenario(with_population=True),
                                predict_eval_seed(request))
        assert out[tag]["metrics"] == golden


def test_batch_window_is_omitted_or_zero():
    """``batch_window`` is kept for the unbatched oracle's
    ``WhatIfService(batch_window=0)``; any other window is refused."""
    for window in (0.005, 0.2, -1.0):
        with pytest.raises(ValueError, match="batch_window"):
            WhatIfService(batch_window=window)
    WhatIfService(batch_window=0).close()
