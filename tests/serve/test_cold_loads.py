"""A cold ``/predict`` stream on the fault-free channel simulates each
page's stock reference once: requests that differ only in the scenario
seed and the T1/T2 timers pay for their variant loads alone, and the
answers are the ones a fresh service gives."""

import pytest

from repro.ablation.objective import reset_load_cache
from repro.serve.service import WhatIfService

PAGES = ["cnn", "www.motors.ebay.com"]


def _payload(seed: int, t1: float, t2: float) -> dict:
    return {"n_users": 20, "n_channels": 10, "horizon": 120.0,
            "mean_interval": 8.0, "profile": "ideal", "pages": PAGES,
            "reading_times": [2.0, 9.0, 30.0], "seed": seed,
            "setup": {"t1": t1, "t2": t2}}


PAYLOADS = (_payload(101, 3.0, 10.0), _payload(202, 5.5, 14.0),
            _payload(303, 2.5, 18.0))


@pytest.fixture(autouse=True)
def fresh_loads():
    reset_load_cache()
    yield
    reset_load_cache()


def _loads(service: WhatIfService) -> dict:
    """The ``ablate_loads`` counters of the service's ``/metrics``."""
    return service.metrics.snapshot()["caches"]["ablate_loads"]


def _fresh_answer(payload: dict) -> dict:
    """The payload answered by a new service with no memo, no disk."""
    reset_load_cache()
    service = WhatIfService(batch_window=0.0)
    try:
        return service.predict_payload(payload)
    finally:
        service.close()


def test_cold_requests_reuse_the_stock_loads(tmp_path):
    service = WhatIfService(batch_window=0.0,
                            load_cache_dir=str(tmp_path / "loads"))
    try:
        first = service.predict_payload(PAYLOADS[0])
        before = _loads(service)
        assert before["loads"] == 2 * len(PAGES)  # variant + stock
        second = service.predict_payload(PAYLOADS[1])
        after = _loads(service)
        assert after["loads"] - before["loads"] == len(PAGES)
        assert after["disk_hits"] == 0

        # A new process: the memo is gone, the disk cache is not.
        reset_load_cache()
        third = service.predict_payload(PAYLOADS[2])
        stats = _loads(service)
        assert (stats["loads"], stats["disk_hits"]) == \
            (len(PAGES), len(PAGES))
    finally:
        service.close()

    for payload, answer in zip(PAYLOADS, (first, second, third)):
        assert answer == _fresh_answer(payload)
