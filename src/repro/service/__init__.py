"""The prediction service: serving PEVPM over HTTP/JSON.

The paper's PEVPM is an execution-driven predictor meant to be *queried*
-- "what is the run time of this model at P processes on this network?".
This subsystem turns the engine into a stdlib-only asyncio service with
the request funnel a production serving layer needs:

* :mod:`.http`    -- the one HTTP/1.1 wire layer: message reader and
  writer, the keep-alive connection loop and the background loop thread
  that the server and the router share, and the response reader the
  client uses;
* :mod:`.server`  -- asyncio HTTP server: ``/predict``,
  ``/distributions``, ``/healthz``, ``/metrics``;
* :mod:`.batcher` -- the evaluation queue, one entry per content key:
  identical misses share one evaluation (singleflight), a new key
  beyond the bound is shed (429 + Retry-After), and the misses that
  queue while the evaluator is busy share its next
  :func:`~repro.pevpm.predict.evaluate_with_precision` call; a lone
  miss is evaluated at once;
* :mod:`.jobs`    -- the overload signals: queue shedding, deadlines
  (504) and the engine-health circuit breaker (503);
* :mod:`.faults`  -- deterministic fault injection (cache corruption,
  cache delays, evaluator stalls) behind ``repro serve --chaos``;
* :mod:`.metrics` -- counters, gauges, per-stage latency histograms
  and endpoint latency summaries, Prometheus text format (the
  observability layer of :mod:`repro.obs` feeds the stage histograms
  and the queue-depth / batch-occupancy gauges);
* :mod:`.client`  -- blocking client and a closed-loop load generator;
* :mod:`.records` -- request schema and the shared prediction record;
* :mod:`.sharding`, :mod:`.router`, :mod:`.supervisor` -- the sharded
  serving tier: consistent-hash routing over content-addressed request
  keys, a front router with failover, and multi-process supervision
  (``repro serve --shards N``) sharing one on-disk cache plane.

The contract throughout: every served ``/predict`` response carries the
seed and engine flags that produced it, and its ``times`` are
bit-identical to the same :func:`repro.pevpm.predict` call made
directly.
"""

from .batcher import MicroBatcher
from .client import (
    LoadGenerator,
    LoadResult,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from .jobs import BreakerOpen, CircuitBreaker, QueueFull
from .metrics import ServiceMetrics
from .records import (
    MODELS,
    PredictRequest,
    RequestError,
    prediction_record,
    routing_key_for,
)
from .router import Backend, ShardRouter
from .server import PredictionService, ServiceServer
from .server import ServiceThread
from .sharding import HashRing
from .supervisor import Supervisor

__all__ = [
    "Backend",
    "BreakerOpen",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HashRing",
    "LoadGenerator",
    "LoadResult",
    "MODELS",
    "MicroBatcher",
    "PredictRequest",
    "PredictionService",
    "QueueFull",
    "RequestError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "ServiceServer",
    "ServiceThread",
    "ShardRouter",
    "Supervisor",
    "prediction_record",
    "routing_key_for",
]
