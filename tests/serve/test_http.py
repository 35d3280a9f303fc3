"""End-to-end over a real socket: routing, errors, jobs, metrics."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.ablation.objective import variant_hold_pool
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.serve.http import ServeApp, ServerThread
from repro.serve.jobs import JobManager
from repro.serve.schema import PredictRequest
from repro.serve.service import WhatIfService, predict_eval_seed

PREDICT = {"n_users": 30, "n_channels": 20, "horizon": 200.0,
           "mean_interval": 6.0}
#: cnn on cell_edge at seed 3 loses a transfer for good; the page load
#: used to raise TypeError and answer 500 for the whole micro-batch.
FAILED_TRANSFER = {"profile": "cell_edge", "pages": ["cnn"], "seed": 3,
                   "n_users": 30, "n_channels": 20, "horizon": 200.0}
SWEEP = {"users": [5, 9], "n_channels": 8, "horizon": 50.0,
         "mean_interval": 2.0, "pool_size": 16}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    service = WhatIfService()
    service.warmup()
    jobs = JobManager(tmp_path_factory.mktemp("jobs"), workers=1)
    thread = ServerThread(ServeApp(service, jobs)).start()
    yield thread
    thread.stop()


def _request(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=120) as reply:
            return reply.status, json.loads(reply.read()), dict(
                reply.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def test_health(server):
    status, body, _ = _request(server.url + "/health")
    assert status == 200
    assert body["status"] == "ok"
    assert body["warm"] is True
    assert body["jobs_enabled"] is True


def test_predict_matches_direct_capacity_run(server):
    """The bytes on the wire equal a hand-built simulator run."""
    status, body, _ = _request(server.url + "/predict", "POST", PREDICT)
    assert status == 200

    request = PredictRequest.from_payload(PREDICT)
    eval_seed = predict_eval_seed(request)
    assert body["eval_seed"] == eval_seed
    pool = variant_hold_pool(request.setup(), request.scenario())
    simulator = CapacitySimulator(
        pool, CapacityConfig(n_channels=PREDICT["n_channels"],
                             mean_interval=PREDICT["mean_interval"],
                             horizon=PREDICT["horizon"],
                             seed=eval_seed))
    capacity_seed = int(np.random.SeedSequence(
        eval_seed, spawn_key=(1,)).generate_state(1)[0])
    direct = simulator.run(PREDICT["n_users"], seed=capacity_seed)
    assert body["capacity"]["sessions"] == direct.sessions
    assert body["capacity"]["dropped"] == direct.dropped
    assert body["metrics"]["drop_probability"] == \
        direct.drop_probability


def test_predict_is_idempotent_on_the_wire(server):
    one = _request(server.url + "/predict", "POST", PREDICT)
    two = _request(server.url + "/predict", "POST", PREDICT)
    assert one == two


def test_predict_with_a_failed_transfer_answers_200(server):
    status, body, _ = _request(server.url + "/predict", "POST",
                               FAILED_TRANSFER)
    assert status == 200
    assert body["request"]["pages"] == ["cnn"]
    assert body["metrics"]["load_time"] > 0


def test_predict_with_no_session_in_the_horizon_answers_200(server):
    """One user over a 0.01 s horizon draws no session: the capacity
    section reports nothing dropped and no service statistics."""
    status, body, _ = _request(server.url + "/predict", "POST",
                               {"n_users": 1, "horizon": 0.01})
    assert status == 200
    capacity = body["capacity"]
    assert (capacity["sessions"], capacity["dropped"],
            capacity["drop_probability"]) == (0, 0, 0.0)
    assert capacity["service_mean"] is None
    assert capacity["service_p99"] is None
    assert body["metrics"]["drop_probability"] == 0.0


def test_predict_validation_error_is_400(server):
    status, body, _ = _request(server.url + "/predict", "POST",
                               {"n_users": 0})
    assert status == 400
    assert body["error"]["field"] == "n_users"


@pytest.mark.parametrize("field, value", [
    ("horizon", float("nan")),
    ("horizon", float("inf")),
    ("mean_interval", float("nan")),
    ("reading_times", [float("nan")]),
], ids=["horizon-nan", "horizon-inf", "mean_interval-nan",
        "reading_times-nan"])
def test_non_finite_number_is_400(server, field, value):
    """``json.loads`` accepts NaN and Infinity; they must be rejected at
    the schema, not fail the whole micro-batch round with a 500."""
    status, body, _ = _request(server.url + "/predict", "POST",
                               {"n_users": 100, field: value})
    assert status == 400
    assert body["error"]["field"] == field


def test_malformed_json_body_is_400(server):
    request = urllib.request.Request(
        server.url + "/predict", data=b"{nope", method="POST")
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=30)
    assert caught.value.code == 400
    assert json.loads(caught.value.read())["error"]["field"] == "body"


def test_unknown_route_is_404(server):
    status, body, _ = _request(server.url + "/nope")
    assert status == 404


def test_wrong_method_is_405_with_allow(server):
    status, _, headers = _request(server.url + "/predict", "GET")
    assert status == 405
    assert headers.get("Allow") == "POST"


def test_unknown_job_is_404(server):
    status, body, _ = _request(server.url + "/jobs/feedfacefeedface")
    assert status == 404
    assert "unknown job" in body["error"]["message"]


def test_sweep_round_trip(server):
    status, body, _ = _request(server.url + "/sweep", "POST", SWEEP)
    assert status == 202
    job_id = body["job_id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, body, _ = _request(server.url + f"/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("complete", "failed"):
            break
        time.sleep(0.05)
    assert body["state"] == "complete"
    assert [p["n_users"] for p in body["result"]["points"]] == \
        SWEEP["users"]

    # Resubmitting answers from the finished work dir, still 202.
    status, again, _ = _request(server.url + "/sweep", "POST", SWEEP)
    assert status == 202
    assert again["job_id"] == job_id
    assert again["state"] == "complete"


def test_metrics_counts_the_traffic(server):
    _request(server.url + "/predict", "POST", PREDICT)
    status, body, _ = _request(server.url + "/metrics")
    assert status == 200
    assert body["requests"]["predict"] >= 1
    latency = body["latency_ms"]["predict"]
    assert latency["count"] >= 1
    assert latency["p50"] <= latency["p99"]
    assert body["caches"]["pages"]["hits"] >= 0
    assert body["serving"]["requests"] >= 1


def test_sweep_without_job_manager_is_503():
    service = WhatIfService(batch_window=0.0)
    app = ServeApp(service, jobs=None)
    status, body, _ = app.handle("POST", "/sweep", SWEEP)
    assert status == 503
    service.close()
