"""The transport-agnostic what-if core: scenario in, prediction out.

One :class:`WhatIfService` owns the process-wide warm state (corpus,
load memo, benchmark memo — all thread-safe single-flight caches) and a
:class:`~repro.serve.batcher.MicroBatcher` that computes a ``predict``
call at once while a core is free and, once every core is busy, turns
the calls that queue up into batched ``evaluate_setups`` fleet calls.
Determinism is the contract:

- the request's evaluation seed is spawned from a content-addressed
  run ID (``serve-predict-v1`` + scenario fingerprint + setup fields),
  exactly the way the ablation engine seeds a matrix cell — so the
  same request always answers with the same bytes, across restarts,
  batch compositions and worker counts;
- scenario metrics come from the same :func:`~repro.ablation.objective.
  evaluate_setups` path ``repro tune`` uses, and the capacity section
  reuses its seed recipe (``CapacityConfig(seed=eval_seed)`` +
  :func:`~repro.ablation.objective.capacity_seed`), so the response's
  ``drop_probability`` is byte-identical to the evaluator's
  population objective while a *single* M/G/N run also yields the
  service-time quantiles (``tests/serve/test_service_golden.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.ablation.engine import spec_seed
from repro.ablation.objective import (capacity_seed, evaluate_setups,
                                      variant_hold_pool)
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.runtime.cache import ResultCache
from repro.runtime.observability import KERNEL_STATS
from repro.runtime.parallel import warm_process
from repro.serve.batcher import DEFAULT_MAX_BATCH, MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.schema import PredictRequest
from repro.stream.shard import params_fingerprint
from repro.stream.sweep import sweep_point

#: Versioned namespace of the prediction seed derivation.  Bumping it
#: is a deliberate statement that responses may change.
PREDICT_LAYER = "serve-predict-v1"


def predict_run_id(request: PredictRequest) -> str:
    """Content-addressed identity of one prediction."""
    return params_fingerprint({
        "layer": PREDICT_LAYER,
        "scenario": request.scenario(with_population=True).fingerprint(),
        "setup": asdict(request.setup()),
    })


def predict_eval_seed(request: PredictRequest) -> int:
    """The evaluation seed a request deterministically maps to."""
    return spec_seed(predict_run_id(request))


class WhatIfService:
    """Answers ``predict`` calls; owns the batcher and warm caches.

    Predictions batch by core occupancy (see :mod:`repro.serve.batcher`).
    ``batch_window`` stays only for ``bench/oracle.py``, which builds
    the unbatched service as ``WhatIfService(batch_window=0)``: omitted
    means occupancy batching, ``0`` means unbatched (unlimited slots on
    the same path: each request computes at once and alone), and any
    other value raises ``ValueError``.  Both modes answer with the same
    bytes.
    """

    def __init__(self, *,
                 batch_window: Optional[float] = None,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 load_cache_dir: Optional[str] = None,
                 metrics: Optional[ServeMetrics] = None):
        if batch_window is None:
            slots = None
        elif batch_window == 0:
            slots = math.inf
        else:
            raise ValueError("batch_window must be omitted (occupancy "
                             f"batching) or 0 (unbatched), got "
                             f"{batch_window!r}")
        self.metrics = metrics or ServeMetrics()
        self._load_cache = (ResultCache(load_cache_dir)
                            if load_cache_dir is not None else None)
        self._batcher = MicroBatcher(self._compute_batch, slots=slots,
                                     max_batch=max_batch,
                                     on_round=self._record_round)
        self._warm = False

    # -- lifecycle -------------------------------------------------------

    def warmup(self) -> None:
        """Pay the corpus generation cost now, not in a request."""
        warm_process()
        self._warm = True

    @property
    def warm(self) -> bool:
        return self._warm

    def close(self) -> None:
        """Drain in-flight prediction rounds; refuse new ones."""
        self._batcher.close()

    # -- the request path ------------------------------------------------

    def predict(self, request: PredictRequest) -> dict:
        """One what-if answer, batched with peers while cores are busy."""
        started = time.perf_counter()
        try:
            response = self._batcher.submit(request.canonical(), request)
        except Exception:
            self.metrics.observe("predict",
                                 time.perf_counter() - started,
                                 error=True)
            raise
        self.metrics.observe("predict", time.perf_counter() - started)
        KERNEL_STATS.add(serve_requests=1)
        return response

    def predict_payload(self, payload) -> dict:
        """Parse + predict (the HTTP front-ends' entry point)."""
        return self.predict(PredictRequest.from_payload(payload))

    # -- batch execution -------------------------------------------------

    def _record_round(self, n_items: int, n_coalesced: int) -> None:
        KERNEL_STATS.add(serve_batches=1, serve_coalesced=n_coalesced)

    def _compute_batch(self, requests: List[PredictRequest]
                       ) -> List[dict]:
        """Answer every request in the round; one fleet call per
        distinct scenario.

        Requests sharing a scenario (profile/pages/readings/seed) ride
        one ``evaluate_setups`` grid regardless of how their setups or
        populations differ; the capacity run stays per-request because
        its identity (pool × population × seed) is per-request.
        """
        groups: Dict[Tuple, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.scenario_key(), []).append(index)

        responses: List[Optional[dict]] = [None] * len(requests)
        for indices in groups.values():
            scenario = requests[indices[0]].scenario()
            pairs = []
            identities = []
            for index in indices:
                request = requests[index]
                run_id = predict_run_id(request)
                eval_seed = spec_seed(run_id)
                identities.append((run_id, eval_seed))
                pairs.append((request.setup(), eval_seed))
            metrics_list = evaluate_setups(pairs, scenario,
                                           load_cache=self._load_cache)
            for index, (run_id, eval_seed), metrics in zip(
                    indices, identities, metrics_list):
                request = requests[index]
                capacity = self._capacity_section(request, eval_seed)
                metrics = dict(metrics)
                metrics["drop_probability"] = \
                    capacity["drop_probability"]
                responses[index] = {
                    "run_id": run_id,
                    "eval_seed": eval_seed,
                    "request": request.to_dict(),
                    "metrics": metrics,
                    "capacity": capacity,
                }
        return responses  # type: ignore[return-value]

    def _capacity_section(self, request: PredictRequest,
                          eval_seed: int) -> dict:
        """One M/G/N run: drop probability *and* service quantiles.

        Seeded exactly like the evaluator's ``drop_probability`` metric
        — same config seed, same :func:`capacity_seed` —
        and executed through :func:`~repro.stream.sweep.sweep_point`,
        whose sessions/dropped are ``CapacitySimulator.run``'s: both
        resolve the same source blocks through one loop.
        """
        pool = variant_hold_pool(request.setup(), request.scenario(),
                                 load_cache=self._load_cache)
        config = CapacityConfig(n_channels=request.n_channels,
                                mean_interval=request.mean_interval,
                                horizon=request.horizon,
                                seed=eval_seed)
        point = sweep_point(CapacitySimulator(pool, config),
                            request.n_users, capacity_seed(eval_seed))
        return point.to_dict()
