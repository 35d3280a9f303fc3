"""repro.serve: the energy-model "what-if" capacity-planning service.

A transport-agnostic service core (:class:`WhatIfService`) answers
``predict`` requests — *"if my cell serves N users with setup X on
profile Y, what energy saving, drop probability and service-time
quantiles do I get?"* — by running the exact evaluator/capacity code
paths the offline figures use, seeded content-addressably so the same
request always yields the same bytes.  Around it:

- :class:`~repro.serve.batcher.MicroBatcher` — computes a prediction at
  once while a core is free, batches the ones that queue while every
  core is busy, and dedupes identical in-flight ones;
- :class:`~repro.serve.jobs.JobManager` — async population sweeps as
  resumable ``repro.sched`` work directories behind a bounded queue;
- :class:`~repro.serve.http.ServeApp` + a stdlib threading HTTP
  server (``repro serve``), the one transport.
"""

from repro.serve.batcher import (BatcherClosed, DEFAULT_MAX_BATCH,
                                 MicroBatcher)
from repro.serve.http import (ServeApp, ServerThread, create_server)
from repro.serve.jobs import JobManager, JobQueueFull, UnknownJob
from repro.serve.metrics import LATENCY_QUANTILES, ServeMetrics
from repro.serve.schema import (PredictRequest, SweepRequest,
                                ValidationError, known_page_names)
from repro.serve.service import (PREDICT_LAYER, WhatIfService,
                                 predict_eval_seed, predict_run_id)

__all__ = [
    "BatcherClosed",
    "DEFAULT_MAX_BATCH",
    "JobManager",
    "JobQueueFull",
    "LATENCY_QUANTILES",
    "MicroBatcher",
    "PREDICT_LAYER",
    "PredictRequest",
    "ServeApp",
    "ServeMetrics",
    "ServerThread",
    "SweepRequest",
    "UnknownJob",
    "ValidationError",
    "WhatIfService",
    "create_server",
    "known_page_names",
    "predict_eval_seed",
    "predict_run_id",
]
