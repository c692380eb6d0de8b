"""The asyncio prediction server.

A stdlib-only HTTP/1.1 server (hand-rolled request parsing over
``asyncio.start_server`` streams -- no ``http.server``) exposing the
PEVPM engine and the MPIBench distribution database:

* ``POST /predict``       -- serve a PEVPM prediction (JSON in/out),
  optionally against a named registry database (``"db": "gigabit@v1"``);
* ``GET  /distributions`` -- query the default distribution database
  (:meth:`~repro.mpibench.results.DistributionDB.describe`) and list
  the registry fleet;
* ``POST /distributions`` -- upload a measured results document or a
  ``simnet`` topology spec fitted server-side (:mod:`repro.registry`);
* ``GET/DELETE /distributions/{ref}`` and
  ``PUT /distributions/{ref}/alias`` -- inspect, remove, and hot-swap
  promote registry databases, per-tenant via ``X-Repro-Tenant``;
* ``GET  /models``         -- the workload catalogue (and
  ``GET /models/{name}`` for one model's defaulted parameters);
* ``POST /programs``       -- import a recorded MPI trace
  (:mod:`repro.trace_import`; invalid traces 422), then predict it with
  ``{"model": "imported", "model_params": {"program": <fingerprint>}}``;
  ``GET/DELETE /programs/{fingerprint}`` inspect and remove;
* ``GET  /healthz``       -- liveness + configuration summary;
* ``GET  /metrics``       -- Prometheus text exposition;
* ``GET  /trace``         -- recent request traces as JSON (only when
  the service was built with a :class:`~repro.obs.Tracer`; see
  :mod:`repro.obs`).

The ``/predict`` funnel, in order: parse/validate -> content key ->
LRU/disk cache (:mod:`repro.cas`) -> singleflight (:mod:`.dedup`) ->
admission (:mod:`.jobs`, 429 when full) -> micro-batcher
(:mod:`.batcher`) -> :func:`~repro.pevpm.parallel.evaluate_groups`.
Deadlines produce 504 without cancelling the evaluation (the result
still warms the cache).  Every stage preserves the reproducibility
contract: a served response's ``times`` are bit-identical to the same
``predict(...)`` call made directly with the seed and engine flags the
response echoes back.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time as _time
from dataclasses import replace
from urllib.parse import parse_qsl, urlsplit

from ..cas import LRU
from ..mpibench.results import DistributionDB
from ..obs import ENGINE_PHASES, JsonLogger, Tracer, clean_trace_id, merge_phases
from ..pevpm import parallel as _parallel
from ..pevpm.machine import ModelDeadlock
from ..pevpm.parallel import (
    RunGroup,
    as_seed_sequence,
    evaluate_groups,
)
from ..pevpm.predict import (
    PredictionCache,
    build_prediction,
    evaluate_with_precision,
    precision_doc,
    prediction_doc,
    prediction_from_doc,
)
from ..pevpm.timing import timing_from_db
from ..registry import (
    RegistryError,
    RegistryStore,
    TenantManager,
    TenantQuota,
    TenantThrottled,
    UnknownRef,
    clean_tenant,
)
from ..registry.store import NotOwner
from ..simnet import perseus
from ..trace_import import ProgramStore, TraceError, parse_trace
from .batcher import MicroBatcher
from .dedup import LeaderCancelled, SingleFlight
from .faults import FaultPlan
from .jobs import BreakerOpen, CircuitBreaker, JobQueue, QueueFull
from .metrics import ServiceMetrics
from .records import MODELS, PredictRequest, RequestError, prediction_record

__all__ = [
    "PredictionService",
    "ServiceServer",
    "read_http_request",
    "render_http_response",
]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def read_http_request(reader):
    """Read one HTTP/1.1 request from an asyncio stream.

    Returns ``(method, target, headers, body)`` with lower-cased header
    names, or ``None`` on a cleanly closed connection.  Shared between
    the shard server and the front router so both ends of a forwarded
    request parse identically.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise ConnectionError("malformed request line")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or 0)
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def render_http_response(
    status: int,
    payload: bytes,
    content_type: str,
    extra_headers: dict | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one HTTP/1.1 response (Content-Length framed)."""
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + payload


class PredictionService:
    """Request funnel + engine glue; protocol-agnostic core of the server."""

    def __init__(
        self,
        db: DistributionDB,
        spec=None,
        *,
        workers: int | None = 1,
        cache_dir=None,
        lru_size: int = 1024,
        max_batch: int = 8,
        max_wait: float = 0.002,
        queue_limit: int = 64,
        deadline_s: float = 30.0,
        retry_after: float = 1.0,
        batching: bool = True,
        dedup: bool = True,
        caching: bool = True,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 2.0,
        fault_injector=None,
        tracer: Tracer | None = None,
        log_json: bool = False,
        log_stream=None,
        shard_id: int | None = None,
        registry: RegistryStore | None = None,
        tenants: TenantManager | None = None,
        tenant_rate: float = 0.0,
        programs: ProgramStore | None = None,
    ):
        self.db = db
        self.spec = spec if spec is not None else perseus()
        self.workers = workers
        self.deadline_s = deadline_s
        self.caching = caching
        self.dedup_enabled = dedup
        #: identity within a sharded deployment (``None`` standalone):
        #: stamped onto every Prometheus series so a router-level
        #: aggregation of N shards stays a valid, collision-free scrape
        self.shard_id = shard_id
        self.metrics = ServiceMetrics(
            constant_labels=(
                None if shard_id is None else {"shard_id": str(shard_id)}
            )
        )
        #: ``None`` (the default) keeps every tracing call site on its
        #: guarded no-op path -- the pre-observability hot path.
        self.tracer = tracer
        self.logger = JsonLogger(log_stream) if log_json else None
        if tracer is not None:
            self.metrics.register_gauge(
                "repro_trace_buffer_traces", lambda: len(tracer)
            )
        self.faults = fault_injector
        if fault_injector is not None:
            # Pool-kill faults fire inside the engine module.
            _parallel.install_fault_injector(fault_injector)
        # The prediction cache: an LRU of finished documents (the memory
        # tier, no encoding on either path) in front of the optional
        # on-disk store shared by every process writing the directory.
        # Keys are content-addressed request keys, so a hit is by
        # construction bit-identical to re-evaluating the request.
        self.lru = LRU(lru_size if caching else 0)
        self.disk = PredictionCache(cache_dir) if (caching and cache_dir) else None
        self.dedup = SingleFlight(self.metrics)
        # The registry is the data plane the service reads through: the
        # injected startup db is entry zero (registered under its
        # content fingerprint and frozen -- post-registration mutation
        # would silently desync every cache key derived from it).  With
        # no explicit store the registry is in-memory, preserving the
        # original single-database behaviour with the fleet API on top.
        self.registry = registry if registry is not None else RegistryStore()
        self.db_fingerprint = db.fingerprint()
        self.registry.put(db, tenant="builtin", source="startup")
        try:
            self.registry.resolve("default")
        except (KeyError, ValueError):
            # only seed the alias when absent: a restart must not
            # silently revert an operator's "default" promotion
            self.registry.set_alias(
                "default", self.db_fingerprint, tenant="builtin"
            )
        # Imported trace programs share the registry's disk root (one
        # ``--registry-root`` wires both planes, so every shard of a
        # sharded deployment sees every uploaded program); with an
        # in-memory registry the program store is in-memory too.
        if programs is not None:
            self.programs = programs
        elif self.registry.root is not None:
            self.programs = ProgramStore(self.registry.root / "programs")
        else:
            self.programs = ProgramStore()
        self.tenants = (
            tenants
            if tenants is not None
            else TenantManager(self.registry, TenantQuota(rate=tenant_rate))
        )
        if self.tenants.programs is None:
            self.tenants.programs = self.programs
        # One corruption path: every store quarantines through the CAS,
        # and every quarantine is counted, labelled by store; the chaos
        # harness poisons entries of the same stores.
        stores = {
            "prediction": self.disk,
            "registry": self.registry.cas,
            "program": self.programs.cas,
        }
        for name, store in stores.items():
            if store is not None:
                store.on_corrupt = lambda key, name=name: self.metrics.inc(
                    "repro_cache_corrupt_total", store=name
                )
        if fault_injector is not None:
            fault_injector.stores = stores
        self.jobs = JobQueue(
            queue_limit,
            self.metrics,
            retry_after=retry_after,
            limiter=self.tenants.admit,
        )
        self.metrics.register_gauge(
            "repro_registry_dbs", lambda: len(self.registry)
        )
        self.metrics.register_gauge(
            "repro_registry_bytes", lambda: self.registry.stats()["bytes"]
        )
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            metrics=self.metrics,
        )
        #: set by graceful shutdown: new predictions are shed with 503
        self.draining = False
        self.batcher = MicroBatcher(
            self._evaluate_requests,
            self.metrics,
            max_batch=max_batch,
            max_wait=max_wait,
            enabled=batching,
        )
        # Evaluator-thread caches: model trees and timing instances are
        # deterministic per key and reused across requests (both engines
        # call ``timing.reset()`` at run start, so reuse cannot change
        # the draws of any individual evaluation).  Keys carry the
        # cluster / db fingerprint so registry-routed requests never
        # share a model or timing with the wrong database.
        self._models: dict[str, tuple[object, dict | None]] = {}
        self._timings: dict[tuple, object] = {}
        self._specs: dict[str, object] = {}

    # -- engine side (evaluator thread) -----------------------------------------
    def _spec_for(self, cluster: str):
        """Topology spec for a registry database's cluster name.

        The startup database keeps the injected spec exactly (so the
        pre-registry service is byte-for-byte unchanged); other
        clusters map through the registry's topology factories, falling
        back to the injected spec for measured uploads whose cluster
        the simulator does not know.
        """
        if cluster == self.spec.name:
            return self.spec
        spec = self._specs.get(cluster)
        if spec is None:
            from ..registry.seeds import spec_for_cluster

            spec = self._specs[cluster] = spec_for_cluster(
                cluster, default=self.spec
            )
        return spec

    def _group_for(self, req: PredictRequest) -> RunGroup:
        db = getattr(req, "_registry_db", None) or self.db
        fingerprint = (
            getattr(req, "_registry_fpr", None) or self.db_fingerprint
        )
        spec = self._spec_for(db.cluster)
        model_key = json.dumps(
            [req.model, db.cluster, sorted(req.model_params.items())],
            sort_keys=True,
        )
        built = self._models.get(model_key)
        if built is None:
            program = getattr(req, "_trace_program", None)
            if program is not None:
                # Imported program pinned at admission (see
                # _resolve_request_program); its ref is in model_params,
                # so the cache key separates programs correctly.
                built = (program.model(), None)
            else:
                built = req.build_model(spec)
            self._models[model_key] = built
        model, vm_params = built
        timing_key = (
            fingerprint, req.timing_mode, req.timing_source, req.nprocs,
        )
        timing = self._timings.get(timing_key)
        if timing is None:
            timing = self._timings[timing_key] = timing_from_db(
                db,
                mode=req.timing_mode,
                source=req.timing_source,
                nprocs=req.nprocs,
            )
        return RunGroup(
            model=model,
            nprocs=req.nprocs,
            timing=timing,
            seed=as_seed_sequence(req.seed),
            runs=req.runs,
            params=vm_params,
            nic_serialisation=req.nic_serialisation,
            ppn=req.ppn,
            vector_batch=req.vector_batch,
            # Per-phase host-time attribution rides along whenever the
            # service is tracing; it is pure wall-clock measurement, so
            # the evaluation's draws (and times) are unchanged.
            profile=self.tracer is not None and self.tracer.enabled,
        )

    def _finish(self, group: RunGroup, outcomes, wall: float) -> dict:
        t0 = _time.perf_counter()
        pred = build_prediction(group, outcomes, wall)
        doc = dict(prediction_doc(group, pred), wall_time=wall)
        phases = merge_phases(outcomes)
        if phases:
            phases["serialize"] = _time.perf_counter() - t0
            doc["phases"] = phases
        return doc

    def _finish_adaptive(self, group: RunGroup, target, result) -> dict:
        """Document for one adaptive evaluation: the finished group is
        the equivalent fixed request at the achieved total, plus the
        ``precision`` provenance block (target, per-round RSE trail,
        convergence)."""
        t0 = _time.perf_counter()
        finished = replace(group, runs=result.runs)
        pred = build_prediction(finished, result.outcomes, result.wall)
        doc = dict(prediction_doc(finished, pred), wall_time=result.wall)
        doc["precision"] = precision_doc(target, result)
        phases = merge_phases(result.outcomes)
        if phases:
            phases["serialize"] = _time.perf_counter() - t0
            doc["phases"] = phases
        return doc

    def _evaluate_requests(self, reqs: list[PredictRequest]) -> list:
        """Evaluate one micro-batch (runs on the evaluator thread).

        All requests' groups go through **one**
        :func:`~repro.pevpm.predict.evaluate_with_precision` call:
        fixed-``runs`` groups evaluate in its first round, and adaptive
        groups' refinement increments coalesce -- every round is a
        single ``evaluate_groups`` dispatch covering all still-active
        requests, so concurrent adaptive refinements share the pool just
        as fixed batch-mates do.  A failure (e.g. a deadlocking model)
        falls back to per-request evaluation so one poisoned request
        cannot fail its batch-mates.  Returns one document or exception
        per request.
        """
        if self.faults is not None:
            self.faults.on_evaluate()
        results: list = [None] * len(reqs)
        fixed_groups: list[RunGroup] = []
        fixed_idx: list[int] = []
        adaptive_pairs: list = []
        adaptive_idx: list[int] = []
        for i, req in enumerate(reqs):
            try:
                group = self._group_for(req)
                target = req.precision_target()
            except Exception as exc:
                results[i] = exc
                continue
            if target is not None:
                adaptive_pairs.append((group, target))
                adaptive_idx.append(i)
            else:
                fixed_groups.append(group)
                fixed_idx.append(i)
        if not fixed_groups and not adaptive_pairs:
            return results
        try:
            fixed_out, fixed_walls, adaptive_results = evaluate_with_precision(
                fixed_groups,
                adaptive_pairs,
                workers=self.workers,
                on_rebuild=self._pool_rebuilt,
            )
        except Exception:
            for i, group in zip(fixed_idx, fixed_groups):
                try:
                    t1 = _time.perf_counter()
                    outcomes = evaluate_groups(
                        [group],
                        workers=self.workers,
                        on_rebuild=self._pool_rebuilt,
                    )[0]
                    results[i] = self._finish(
                        group, outcomes, _time.perf_counter() - t1
                    )
                except Exception as exc:
                    results[i] = exc
            for i, (group, target) in zip(adaptive_idx, adaptive_pairs):
                try:
                    _, _, singles = evaluate_with_precision(
                        [],
                        [(group, target)],
                        workers=self.workers,
                        on_rebuild=self._pool_rebuilt,
                    )
                    results[i] = self._finish_adaptive(group, target, singles[0])
                except Exception as exc:
                    results[i] = exc
        else:
            for i, group, outcomes, wall in zip(
                fixed_idx, fixed_groups, fixed_out, fixed_walls
            ):
                results[i] = self._finish(group, outcomes, wall)
            for i, (group, target), result in zip(
                adaptive_idx, adaptive_pairs, adaptive_results
            ):
                results[i] = self._finish_adaptive(group, target, result)
        return results

    def _pool_rebuilt(self, ordinal: int) -> None:
        """Engine recovery hook: a broken process pool was rebuilt."""
        self.metrics.inc("repro_pool_rebuilds_total")

    # -- request funnel (event-loop thread) -----------------------------------
    async def _engine_submit(
        self, req: PredictRequest, trace=None, tenant: str | None = None
    ) -> dict:
        """Admit one request to the engine, with breaker accounting.

        The breaker watches engine *health*: infrastructure failures
        (evaluator crash, unrecoverable pool loss) count against it;
        request-shaped outcomes (deadlocking models, bad requests,
        shedding, throttling, cancellation) do not.
        """
        if not self.breaker.allow():
            raise BreakerOpen(self.breaker.retry_after)
        try:
            with self.jobs.admit(trace, tenant=tenant):
                doc = await self.batcher.submit(req, trace)
        except (
            QueueFull, TenantThrottled, ModelDeadlock, RequestError,
            asyncio.CancelledError,
        ):
            # Non-counting outcome: if this request was the half-open
            # probe, free the probe slot so the next request can probe
            # (otherwise the breaker wedges open until restart).
            self.breaker.release_probe()
            raise
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return doc

    async def _predict(
        self, req: PredictRequest, key: str, trace=None,
        tenant: str | None = None,
    ) -> tuple[dict, str]:
        """Resolve one validated request to (document, served-from)."""
        if self.caching:
            doc = self._cache_get(key, trace)
            if doc is not None:
                return doc, "cache"
        if not self.dedup_enabled:
            doc = await self._engine_submit(req, trace, tenant)
            if self.caching:
                self._cache_store(req, key, doc)
            return doc, "engine"
        leader, fut = self.dedup.claim(key, trace)
        if not leader:
            if trace is None:
                doc, _ = await fut
            else:
                with trace.span("singleflight.wait"):
                    doc, _ = await fut
            return doc, "singleflight"
        try:
            doc = await self._engine_submit(req, trace, tenant)
            if self.caching:
                self._cache_store(req, key, doc)
            self.dedup.resolve(key, (doc, "engine"))
            return doc, "engine"
        except BaseException as exc:
            self.dedup.reject(key, exc)
            raise

    def _cache_get(self, key: str, trace=None) -> dict | None:
        """Memory tier, then disk (promoting a hit); traced as a ``cache``
        span whose ``tier`` is ``memory``, ``disk`` or ``miss``."""
        start = None if trace is None else trace.now()
        doc, tier = self.lru.get(key), "memory"
        if doc is None and self.disk is not None:
            if self.faults is not None:
                self.faults.on_cache_read(self.disk.path(key))
            doc, tier = self.disk.get(key), "disk"
            if doc is not None:
                self._remember(key, doc)
        if doc is None:
            tier = "miss"
            self.metrics.inc("repro_cache_misses_total")
        else:
            self.metrics.inc("repro_cache_hits_total", tier=tier)
        if trace is not None:
            trace.add_span("cache", start, trace.now(), tier=tier)
        return doc

    def _remember(self, key: str, doc: dict) -> None:
        evicted = self.lru.put(key, doc)
        if evicted:
            self.metrics.inc("repro_cache_evictions_total", evicted)

    def _cache_put(self, key: str, doc: dict) -> None:
        self._remember(key, doc)
        if self.disk is not None:
            try:
                self.disk.put(key, doc)
            except OSError:
                # Persistence is best-effort (full disk, permissions):
                # the caller already has the document, and the memory
                # tier keeps serving it.
                self.metrics.inc("repro_cache_write_errors_total")

    def _cache_store(self, req: PredictRequest, key: str, doc: dict) -> None:
        """Persist one engine result in the cache tiers.

        Adaptive results are additionally stored -- with the
        ``precision`` provenance stripped -- under the key of the
        *equivalent fixed request* at the achieved run count: adaptive
        and fixed evaluations of the same content are bit-identical by
        construction, so a later ``runs=N`` request is a cache hit
        instead of a re-evaluation.
        """
        self._cache_put(key, doc)
        if req.adaptive and isinstance(doc.get("times"), list):
            fixed_doc = {k: v for k, v in doc.items() if k != "precision"}
            fingerprint = (
                getattr(req, "_registry_fpr", None) or self.db_fingerprint
            )
            self._cache_put(
                req.fixed_key(fingerprint, len(doc["times"])), fixed_doc
            )

    async def handle_predict(
        self, body: object, headers: dict | None = None
    ) -> tuple[int, dict, dict]:
        """Full ``/predict`` handling: returns (status, headers, doc).

        *headers* (lower-cased names) carries trace propagation: a valid
        ``x-repro-trace`` value pins the trace ID (so client and server
        share one handle on the request) and ``x-repro-attempt`` is the
        client's retry ordinal, logged but never interpreted.  When the
        service has a tracer, the response echoes the trace ID back as
        ``X-Repro-Trace`` and the finished trace lands in the ring
        buffer behind ``GET /trace``.
        """
        headers = headers or {}
        trace = None
        if self.tracer is not None:
            trace = self.tracer.start_trace(
                clean_trace_id(headers.get("x-repro-trace"))
            )
        t_trace = None if trace is None else trace.now()
        t0 = _time.perf_counter()
        status, extra, doc, source = await self._predict_outcome(
            body, trace, headers.get("x-repro-tenant")
        )
        if trace is not None:
            extra = dict(extra)
            extra["X-Repro-Trace"] = trace.trace_id
            self._finish_trace(trace, t_trace, status, source)
        if self.logger is not None:
            self._log_predict(
                trace, headers, status, source, doc,
                _time.perf_counter() - t0,
            )
        return status, extra, doc

    def _finish_trace(self, trace, start, status, source) -> None:
        """Close out one request's trace: add the covering ``request``
        span, feed every stage duration into the per-stage histograms
        and retire the trace into the ring buffer."""
        attrs = {"status": status}
        if source is not None:
            attrs["served_from"] = source
        trace.add_span("request", start, trace.now(), **attrs)
        for stage, seconds in trace.stage_durations().items():
            self.metrics.observe_stage(stage, seconds)
        self.tracer.finish(trace)

    def _attach_engine_phases(self, trace, doc) -> None:
        """Subdivide the ``engine`` span into sweep/match/sample/serialize
        children from the evaluator-side phase buckets.  The real phases
        interleave finely, so the children are *synthetic*: cumulative
        offsets anchored at the engine span's start, flagged
        ``synthetic=True`` in the export."""
        phases = doc.get("phases") if isinstance(doc, dict) else None
        engine = trace.find("engine")
        if not phases or engine is None:
            return
        at = engine.start
        for phase in (*ENGINE_PHASES, "serialize"):
            seconds = phases.get(phase, 0.0)
            if seconds <= 0.0:
                continue
            trace.add_span(
                f"engine.{phase}", at, at + seconds,
                parent=engine, synthetic=True,
            )
            at += seconds

    def _attach_adaptive_rounds(self, trace, doc) -> None:
        """Subdivide the ``engine`` span of an adaptive evaluation into
        one synthetic child per refinement round, carrying the round's
        cumulative run total, added runs, and achieved RSE -- the
        stopping rule's decision trail in the waterfall."""
        precision = doc.get("precision") if isinstance(doc, dict) else None
        rounds = (precision or {}).get("rounds")
        engine = trace.find("engine")
        if not rounds or engine is None:
            return
        at = engine.start
        for ordinal, rnd in enumerate(rounds):
            seconds = float(rnd.get("wall", 0.0))
            if seconds <= 0.0:
                continue
            trace.add_span(
                f"engine.round[{ordinal}]", at, at + seconds,
                parent=engine, synthetic=True,
                runs=rnd.get("runs"), added=rnd.get("added"),
                rse=rnd.get("rse"),
            )
            at += seconds

    def _log_predict(
        self, trace, headers, status, source, doc, elapsed
    ) -> None:
        """One structured JSON line per served ``/predict``."""
        attempt = headers.get("x-repro-attempt")
        try:
            attempt = None if attempt is None else int(attempt)
        except (TypeError, ValueError):
            attempt = None
        batch_id = tier = None
        if trace is not None:
            engine = trace.find("engine")
            if engine is not None:
                batch_id = engine.attrs.get("batch_id")
            cache_span = trace.find("cache")
            if cache_span is not None:
                tier = cache_span.attrs.get("tier")
        error = (
            doc.get("error")
            if isinstance(doc, dict) and status != 200
            else None
        )
        self.logger.log(
            "predict",
            trace_id=None if trace is None else trace.trace_id,
            status=status,
            served_from=source,
            cache_tier=tier,
            batch_id=batch_id,
            attempt=attempt,
            elapsed_ms=round(elapsed * 1e3, 3),
            error=error,
        )

    async def _predict_outcome(
        self, body: object, trace=None, tenant_header: str | None = None
    ) -> tuple[int, dict, dict, str | None]:
        """The ``/predict`` decision: (status, headers, doc, served-from)."""
        if self.draining:
            # Shutdown in progress: answer fast and well-formed instead
            # of letting the socket hang while the engine drains.
            self.metrics.inc("repro_drain_rejected_total")
            return (
                503,
                {"Retry-After": "1", "Connection": "close"},
                {"error": "server draining"},
                None,
            )
        try:
            tenant = clean_tenant(tenant_header)
        except RegistryError as exc:
            self.metrics.inc("repro_bad_requests_total")
            return 400, {}, {"error": str(exc)}, None
        self.metrics.inc("repro_tenant_requests_total", tenant=tenant)
        try:
            req = PredictRequest.from_dict(body)
        except RequestError as exc:
            self.metrics.inc("repro_bad_requests_total")
            return 400, {}, {"error": str(exc)}, None
        try:
            fingerprint, db = self._resolve_request_db(req)
        except UnknownRef as exc:
            self.metrics.inc("repro_registry_misses_total")
            return 404, {}, {"error": str(exc)}, None
        except RegistryError as exc:
            self.metrics.inc("repro_bad_requests_total")
            return 400, {}, {"error": str(exc)}, None
        # Pin the resolved database onto the request: the evaluator
        # thread reads it from here, so an alias promotion between
        # admission and evaluation cannot swap databases under an
        # in-flight request -- its response stays bit-identical to the
        # fingerprint its key (and record) names.
        req._registry_db = db
        req._registry_fpr = fingerprint
        try:
            self._resolve_request_program(req)
        except UnknownRef as exc:
            self.metrics.inc("repro_program_misses_total")
            return 404, {}, {"error": str(exc)}, None
        except (RequestError, RegistryError) as exc:
            self.metrics.inc("repro_bad_requests_total")
            return 400, {}, {"error": str(exc)}, None
        key = req.key(fingerprint)
        deadline = req.deadline_s if req.deadline_s is not None else self.deadline_s
        # Shield the resolution task: a caller hitting its deadline must
        # not cancel a shared evaluation; the late result still lands in
        # the cache for the next attempt.
        task = asyncio.ensure_future(self._predict(req, key, trace, tenant))
        try:
            doc, source = await asyncio.wait_for(
                asyncio.shield(task), timeout=deadline
            )
        except asyncio.TimeoutError:
            self.metrics.inc("repro_deadline_exceeded_total")
            # Observe (and discard) a late error so asyncio never logs a
            # "never retrieved" warning for the shielded task.
            task.add_done_callback(
                lambda t: None if t.cancelled() else t.exception()
            )
            return (
                504,
                {},
                {"error": "deadline exceeded", "deadline_s": deadline},
                None,
            )
        except QueueFull as exc:
            return (
                429,
                {"Retry-After": f"{exc.retry_after:g}"},
                {
                    "error": "queue full",
                    "inflight_limit": exc.limit,
                    "retry_after_s": exc.retry_after,
                },
                None,
            )
        except TenantThrottled as exc:
            self.metrics.inc("repro_tenant_throttled_total", tenant=tenant)
            retry_after = max(exc.retry_after, 0.001)
            return (
                429,
                {"Retry-After": f"{retry_after:.3g}"},
                {"error": str(exc), "retry_after_s": retry_after},
                None,
            )
        except BreakerOpen as exc:
            retry_after = max(exc.retry_after, 0.1)
            return (
                503,
                {"Retry-After": f"{retry_after:.3g}"},
                {
                    "error": "circuit breaker open",
                    "retry_after_s": retry_after,
                },
                None,
            )
        except LeaderCancelled as exc:
            self.metrics.inc("repro_leader_cancelled_total")
            return (
                503,
                {"Retry-After": "0.1"},
                {"error": str(exc)},
                None,
            )
        except ModelDeadlock as exc:
            self.metrics.inc("repro_model_deadlocks_total")
            return (
                422, {}, {"error": "model deadlock", "detail": str(exc)}, None
            )
        except RequestError as exc:
            self.metrics.inc("repro_bad_requests_total")
            return 400, {}, {"error": str(exc)}, None
        except Exception as exc:
            self.metrics.inc("repro_evaluation_errors_total")
            return 500, {}, {"error": f"evaluation failed: {exc}"}, None
        if trace is not None and source == "engine":
            # The raw engine document carries the evaluator-side phase
            # buckets; attach them while it is still in scope (the
            # response record below deliberately omits them).
            self._attach_engine_phases(trace, doc)
            self._attach_adaptive_rounds(trace, doc)
        pred = prediction_from_doc(doc)
        pred.cached = source != "engine"
        pred.wall_time = float(doc.get("wall_time", 0.0))
        pred.precision = doc.get("precision")
        if source == "engine":
            # Spend accounting: how many MC runs each engine-served
            # prediction cost, split by who decided the count.
            self.metrics.observe_runs(
                pred.runs, "adaptive" if req.adaptive else "fixed"
            )
        record = prediction_record(
            pred,
            seed=req.seed,
            vector_batch=req.vector_batch,
            nic_serialisation=req.nic_serialisation,
            workers=self.workers,
            extra={
                "model": req.model,
                "model_params": req.model_params,
                "ppn": req.ppn,
                "timing_mode": req.timing_mode,
                "timing_source": req.timing_source,
                "served_from": source,
                "db_fingerprint": fingerprint,
                "request_key": key,
            },
        )
        if req.db is not None:
            record["db_ref"] = req.db
        return 200, {}, record, source

    def _resolve_request_db(self, req: PredictRequest):
        """(fingerprint, DistributionDB) for one request's ``db`` ref.

        Ref-less requests get the injected startup database without
        touching the registry -- the original single-db hot path.
        """
        if req.db is None:
            return self.db_fingerprint, self.db
        fingerprint = self.registry.resolve(req.db)
        if fingerprint == self.db_fingerprint:
            return fingerprint, self.db
        return fingerprint, self.registry.get(fingerprint)

    def _resolve_request_program(self, req: PredictRequest) -> None:
        """Pin the imported program of a ``model=imported`` request.

        Resolved once at admission (like the database) so a concurrent
        delete cannot swap the model under an in-flight request, and the
        evaluator thread never touches the store.  The request's
        ``nprocs`` must equal the trace's recorded rank count -- an
        imported program has no meaning at any other scale.
        """
        if req.model != "imported":
            return
        program = self.programs.get(req.model_params["program"])
        if req.nprocs != program.nprocs:
            raise RequestError(
                f"program {program.fingerprint[:16]}... was recorded on "
                f"{program.nprocs} rank(s); request nprocs={req.nprocs}"
            )
        req._trace_program = program

    def handle_distributions(self, query: dict) -> tuple[int, dict, dict]:
        if "size" not in query:
            ops = self.db.ops()
            return 200, {}, {
                "cluster": self.db.cluster,
                "ops": ops,
                "configs": {
                    op: [f"{n}x{p}" for n, p in self.db.configs(op)] for op in ops
                },
                "db_fingerprint": self.db_fingerprint,
                "registry": {
                    "dbs": self.registry.entries(),
                    "aliases": {
                        alias: entry.get("fingerprint")
                        for alias, entry in self.registry.aliases().items()
                    },
                },
            }
        try:
            doc = self.db.describe(
                query.get("op", "isend"),
                int(query["size"]),
                int(query.get("contention", 2)),
                intra=query.get("intra", "0") not in ("0", "false", ""),
            )
        except (KeyError, ValueError) as exc:
            return 400, {}, {"error": str(exc)}
        return 200, {}, doc

    # -- registry surface --------------------------------------------------------
    async def handle_registry_upload(
        self, body: object, tenant: str
    ) -> tuple[int, dict, dict]:
        """``POST /distributions``: register a database for *tenant*.

        Two payload shapes: ``{"results": <DistributionDB document>}``
        uploads measured results verbatim; ``{"topology": {"spec": ...,
        "n_nodes": ..., "reps": ..., "seed": ...}}`` simulates the named
        ``simnet`` topology with MPIBench and fits its distributions
        server-side (off the event loop -- fitting takes seconds).  An
        optional ``"alias"`` points a name at the new fingerprint in the
        same call.  Storage quota is checked before any byte is written.
        """
        if not isinstance(body, dict):
            return 400, {}, {"error": "body must be a JSON object"}
        from ..registry import QuotaExceeded
        from ..registry.seeds import fit_topology_db

        alias = body.get("alias")
        try:
            if "results" in body:
                db = DistributionDB.from_doc(body["results"])
                source = "upload"
            elif "topology" in body:
                topo = body["topology"]
                if not isinstance(topo, dict):
                    raise RegistryError("topology must be a JSON object")
                n_nodes = topo.get("n_nodes")
                db = await asyncio.to_thread(
                    fit_topology_db,
                    topo.get("spec", "perseus"),
                    n_nodes=None if n_nodes is None else int(n_nodes),
                    reps=int(topo.get("reps", 24)),
                    seed=int(topo.get("seed", 7)),
                )
                source = f"topology:{topo.get('spec', 'perseus')}"
            else:
                raise RegistryError(
                    "body needs 'results' (a measured DistributionDB "
                    "document) or 'topology' (a simnet spec to fit)"
                )
            meta = self.registry.put(
                db,
                tenant=tenant,
                source=source,
                check=lambda nbytes: self.tenants.check_upload(
                    tenant, nbytes
                ),
            )
            doc = dict(meta)
            if alias is not None:
                self.registry.set_alias(
                    str(alias), doc["fingerprint"], tenant=tenant
                )
                doc["alias"] = str(alias)
        except QuotaExceeded as exc:
            self.metrics.inc("repro_registry_quota_rejections_total")
            return (
                429,
                {"Retry-After": f"{exc.retry_after:g}"},
                {"error": str(exc), "retry_after_s": exc.retry_after},
            )
        except (RegistryError, ValueError, TypeError) as exc:
            return 400, {}, {"error": str(exc)}
        self.metrics.inc("repro_registry_uploads_total", tenant=tenant)
        return 200, {}, doc

    def handle_registry_get(
        self, ref: str, query: dict
    ) -> tuple[int, dict, dict]:
        """``GET /distributions/{ref}``: meta + aliases; with ``size=``
        (plus the usual ``op``/``contention``/``intra``), a distribution
        description against *that* database."""
        try:
            fingerprint = self.registry.resolve(ref)
        except UnknownRef as exc:
            return 404, {}, {"error": str(exc)}
        except RegistryError as exc:
            return 400, {}, {"error": str(exc)}
        doc = dict(self.registry.meta(fingerprint) or {"fingerprint": fingerprint})
        doc["aliases"] = sorted(
            alias
            for alias, entry in self.registry.aliases().items()
            if entry.get("fingerprint") == fingerprint
        )
        if "size" in query:
            try:
                db = self.registry.get(fingerprint)
                doc["distribution"] = db.describe(
                    query.get("op", "isend"),
                    int(query["size"]),
                    int(query.get("contention", 2)),
                    intra=query.get("intra", "0") not in ("0", "false", ""),
                )
            except UnknownRef as exc:
                return 404, {}, {"error": str(exc)}
            except (KeyError, ValueError) as exc:
                return 400, {}, {"error": str(exc)}
        return 200, {}, doc

    def handle_registry_delete(
        self, ref: str, tenant: str
    ) -> tuple[int, dict, dict]:
        """``DELETE /distributions/{ref}``: remove a tenant's database
        (and any aliases pointing at it)."""
        try:
            fingerprint = self.registry.delete(ref, tenant=tenant)
        except UnknownRef as exc:
            return 404, {}, {"error": str(exc)}
        except NotOwner as exc:
            return 403, {}, {"error": str(exc)}
        except RegistryError as exc:
            return 400, {}, {"error": str(exc)}
        self.metrics.inc("repro_registry_deletes_total", tenant=tenant)
        return 200, {}, {"deleted": fingerprint}

    def handle_registry_alias(
        self, ref: str, body: object, tenant: str
    ) -> tuple[int, dict, dict]:
        """``PUT /distributions/{ref}/alias``: hot-swap promotion.

        Atomically points ``body["alias"]`` at *ref*'s fingerprint; the
        next request resolving the alias serves the new database, with
        zero restart and no effect on requests already pinned to the old
        fingerprint.
        """
        if not isinstance(body, dict) or not isinstance(
            body.get("alias"), str
        ):
            return 400, {}, {"error": "body must be {\"alias\": <name>}"}
        alias = body["alias"]
        try:
            previous = self.registry.resolve(alias)
        except (KeyError, ValueError):
            previous = None
        try:
            fingerprint = self.registry.set_alias(alias, ref, tenant=tenant)
        except UnknownRef as exc:
            return 404, {}, {"error": str(exc)}
        except RegistryError as exc:
            return 400, {}, {"error": str(exc)}
        self.metrics.inc("repro_registry_promotions_total", tenant=tenant)
        return 200, {}, {
            "alias": alias,
            "fingerprint": fingerprint,
            "previous": previous,
        }

    # -- workload surface --------------------------------------------------------
    def handle_models(self, name: str | None = None) -> tuple[int, dict, dict]:
        """``GET /models`` / ``GET /models/{name}``: the registered
        workload catalogue with its defaulted parameters -- what a
        client must know to shape a ``/predict`` body."""
        if name is None:
            return 200, {}, {
                "models": {
                    model: {"defaults": dict(defaults)}
                    for model, (defaults, _) in sorted(MODELS.items())
                },
            }
        if name not in MODELS:
            return 404, {}, {
                "error": f"no model {name!r}; known: {sorted(MODELS)}"
            }
        defaults, _ = MODELS[name]
        doc = {"model": name, "defaults": dict(defaults)}
        if name == "imported":
            doc["programs"] = self.programs.entries()
        return 200, {}, doc

    def handle_program_upload(
        self, body: object, tenant: str
    ) -> tuple[int, dict, dict]:
        """``POST /programs``: import a recorded MPI trace for *tenant*.

        Body: ``{"trace": "<text>"}`` -- JSON-lines or the OTF2-like
        text subset, auto-detected -- with an optional ``"name"``.  A
        malformed or semantically invalid trace (unknown ranks,
        unmatched sends, a recv-cycle deadlock) is a 422 carrying the
        importer's diagnosis; storage quota is checked before any byte
        is written, exactly like a distribution upload.
        """
        if not isinstance(body, dict):
            return 400, {}, {"error": "body must be a JSON object"}
        text = body.get("trace")
        if not isinstance(text, str) or not text.strip():
            return 400, {}, {
                "error": "body needs 'trace': the recorded event log as text "
                "(JSON lines or the OTF2-like subset)"
            }
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            return 400, {}, {"error": "name must be a string"}
        from ..registry import QuotaExceeded

        try:
            program = parse_trace(text, name)
        except TraceError as exc:
            self.metrics.inc("repro_trace_rejections_total")
            return 422, {}, {"error": "invalid trace", "detail": str(exc)}
        try:
            meta = self.programs.put(
                program,
                tenant=tenant,
                source="upload",
                check=lambda nbytes: self.tenants.check_upload(tenant, nbytes),
            )
        except QuotaExceeded as exc:
            self.metrics.inc("repro_registry_quota_rejections_total")
            return (
                429,
                {"Retry-After": f"{exc.retry_after:g}"},
                {"error": str(exc), "retry_after_s": exc.retry_after},
            )
        self.metrics.inc("repro_program_uploads_total", tenant=tenant)
        return 200, {}, meta

    def handle_program_get(self, ref: str) -> tuple[int, dict, dict]:
        """``GET /programs/{fingerprint}``: meta + the canonical trace
        (so a client can re-export what the service will predict)."""
        try:
            program = self.programs.get(ref)
        except UnknownRef as exc:
            return 404, {}, {"error": str(exc)}
        except RegistryError as exc:
            return 400, {}, {"error": str(exc)}
        doc = dict(program.meta())
        doc["trace"] = program.to_jsonl()
        return 200, {}, doc

    def handle_program_delete(
        self, ref: str, tenant: str
    ) -> tuple[int, dict, dict]:
        """``DELETE /programs/{fingerprint}``: remove a tenant's program."""
        try:
            fingerprint = self.programs.delete(ref, tenant=tenant)
        except UnknownRef as exc:
            return 404, {}, {"error": str(exc)}
        except NotOwner as exc:
            return 403, {}, {"error": str(exc)}
        except RegistryError as exc:
            return 400, {}, {"error": str(exc)}
        return 200, {}, {"deleted": fingerprint}

    def handle_chaos(self, body: object) -> tuple[int, dict, dict]:
        """``/chaos`` control endpoint (only routed when chaos mode is on).

        ``GET`` returns the injector snapshot; ``POST`` arms faults:
        either ``{"kind": ..., "seconds": ..., "at": ..., "key": ...}``
        for one fault or ``{"plan": {"seed": ..., "length": ...}}`` for
        a whole seeded :class:`FaultPlan`.
        """
        if not isinstance(body, dict):
            return 400, {}, {"error": "body must be a JSON object"}
        try:
            if "plan" in body:
                plan_args = body["plan"]
                if not isinstance(plan_args, dict):
                    raise ValueError("plan must be a JSON object")
                plan = FaultPlan.seeded(
                    int(plan_args.get("seed", 0)),
                    length=int(plan_args.get("length", 4)),
                    max_seconds=float(plan_args.get("max_seconds", 0.05)),
                )
                self.faults.arm_plan(plan)
                armed = [spec.to_dict() for spec in plan.faults]
            else:
                kind = body.get("kind")
                if not isinstance(kind, str):
                    raise ValueError("missing fault 'kind'")
                spec = self.faults.arm(
                    kind,
                    seconds=float(body.get("seconds", 0.0)),
                    at=(None if body.get("at") is None else int(body["at"])),
                    key=body.get("key"),
                )
                armed = [spec.to_dict()]
        except (TypeError, ValueError) as exc:
            return 400, {}, {"error": str(exc)}
        return 200, {}, {"armed": armed, "chaos": self.faults.snapshot()}

    def healthz(self) -> dict:
        doc = {
            "status": "ok",
            "pid": os.getpid(),
            "shard_id": self.shard_id,
            "cluster": self.db.cluster,
            "models": sorted(MODELS),
            "db_fingerprint": self.db_fingerprint,
            "inflight": self.jobs.inflight,
            "queue_limit": self.jobs.limit,
            "batching": self.batcher.enabled,
            "dedup": self.dedup_enabled,
            "caching": self.caching,
            "lru_entries": len(self.lru),
            "breaker": self.breaker.state,
            "draining": self.draining,
            "tracing": self.tracer is not None and self.tracer.enabled,
            "registry": self.registry.stats(),
            "programs": self.programs.stats(),
        }
        if self.faults is not None:
            doc["chaos"] = self.faults.snapshot()
        return doc

    def close(self) -> None:
        self.batcher.close()
        if self.faults is not None:
            _parallel.install_fault_injector(None)


class ServiceServer:
    """HTTP front-end binding a :class:`PredictionService` to a socket.

    With ``reuse_port=True`` the listener sets ``SO_REUSEPORT`` before
    binding, so N shard processes can share one (host, port) and let the
    kernel spread connections -- the router-less deployment topology
    (no cache affinity, but zero added hops; see DESIGN.md section 7).
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    # -- HTTP plumbing ---------------------------------------------------------
    async def _read_request(self, reader):
        return await read_http_request(reader)

    @staticmethod
    def _response(
        status: int,
        payload: bytes,
        content_type: str,
        extra_headers: dict | None = None,
        keep_alive: bool = True,
    ) -> bytes:
        return render_http_response(
            status, payload, content_type, extra_headers, keep_alive
        )

    async def _route(
        self, method: str, target: str, body: bytes,
        headers: dict | None = None,
    ):
        """Dispatch one request -> (status, headers, payload, content-type)."""
        svc = self.service
        split = urlsplit(target)
        path = split.path
        query = dict(parse_qsl(split.query))
        if path == "/healthz" and method == "GET":
            return 200, {}, svc.healthz(), "application/json"
        if path == "/metrics" and method == "GET":
            return 200, {}, svc.metrics.render_prometheus(), "text/plain; version=0.0.4"
        if path == "/trace" and method == "GET":
            tracer = svc.tracer
            if tracer is None:
                return 404, {}, {"error": "tracing disabled"}, "application/json"
            trace_id = query.get("id")
            if trace_id:
                doc = tracer.get(trace_id)
                if doc is None:
                    return (
                        404, {}, {"error": f"no trace {trace_id!r}"},
                        "application/json",
                    )
                return 200, {}, doc, "application/json"
            try:
                limit = int(query.get("limit", "20"))
            except ValueError:
                return (
                    400, {}, {"error": "limit must be an integer"},
                    "application/json",
                )
            return 200, {}, {"traces": tracer.traces(limit)}, "application/json"
        if path == "/models" or path.startswith("/models/"):
            if method != "GET":
                return 405, {}, {"error": "use GET"}, "application/json"
            parts = [p for p in path.split("/") if p][1:]
            if len(parts) > 1:
                return 404, {}, {"error": f"no such endpoint {path!r}"}, "application/json"
            status, extra, doc = svc.handle_models(parts[0] if parts else None)
            return status, extra, doc, "application/json"
        if path == "/programs" or path.startswith("/programs/"):
            try:
                tenant = clean_tenant((headers or {}).get("x-repro-tenant"))
            except RegistryError as exc:
                return 400, {}, {"error": str(exc)}, "application/json"
            parts = [p for p in path.split("/") if p][1:]
            if not parts:
                if method == "GET":
                    return (
                        200, {}, {"programs": svc.programs.entries()},
                        "application/json",
                    )
                if method != "POST":
                    return 405, {}, {"error": "use GET or POST"}, "application/json"
                try:
                    posted = json.loads(body) if body else {}
                except ValueError:
                    return 400, {}, {"error": "body is not valid JSON"}, "application/json"
                status, extra, doc = svc.handle_program_upload(posted, tenant)
                return status, extra, doc, "application/json"
            if len(parts) == 1:
                if method == "GET":
                    status, extra, doc = svc.handle_program_get(parts[0])
                elif method == "DELETE":
                    status, extra, doc = svc.handle_program_delete(
                        parts[0], tenant
                    )
                else:
                    return 405, {}, {"error": "use GET or DELETE"}, "application/json"
                return status, extra, doc, "application/json"
            return 404, {}, {"error": f"no such endpoint {path!r}"}, "application/json"
        if path == "/distributions" or path.startswith("/distributions/"):
            try:
                tenant = clean_tenant(
                    (headers or {}).get("x-repro-tenant")
                )
            except RegistryError as exc:
                return 400, {}, {"error": str(exc)}, "application/json"
            parts = [p for p in path.split("/") if p][1:]
            if not parts:
                if method == "POST" and body:
                    try:
                        posted = json.loads(body)
                    except ValueError:
                        return 400, {}, {"error": "body is not valid JSON"}, "application/json"
                    if not isinstance(posted, dict):
                        return 400, {}, {"error": "body must be a JSON object"}, "application/json"
                    if "results" in posted or "topology" in posted:
                        status, extra, doc = await svc.handle_registry_upload(
                            posted, tenant
                        )
                        return status, extra, doc, "application/json"
                    # legacy describe-by-POST: body keys merge into the query
                    query = {**query, **{k: str(v) for k, v in posted.items()}}
                elif method not in ("GET", "POST"):
                    return 405, {}, {"error": "use GET or POST"}, "application/json"
                status, extra, doc = svc.handle_distributions(query)
                return status, extra, doc, "application/json"
            if len(parts) == 1:
                ref = parts[0]
                if method == "GET":
                    status, extra, doc = svc.handle_registry_get(ref, query)
                elif method == "DELETE":
                    status, extra, doc = svc.handle_registry_delete(ref, tenant)
                else:
                    return 405, {}, {"error": "use GET or DELETE"}, "application/json"
                return status, extra, doc, "application/json"
            if len(parts) == 2 and parts[1] == "alias":
                if method != "PUT":
                    return 405, {}, {"error": "use PUT"}, "application/json"
                try:
                    posted = json.loads(body) if body else {}
                except ValueError:
                    return 400, {}, {"error": "body is not valid JSON"}, "application/json"
                status, extra, doc = svc.handle_registry_alias(
                    parts[0], posted, tenant
                )
                return status, extra, doc, "application/json"
            return 404, {}, {"error": f"no such endpoint {path!r}"}, "application/json"
        if path == "/predict":
            if method != "POST":
                return 405, {}, {"error": "use POST"}, "application/json"
            try:
                parsed = json.loads(body) if body else {}
            except ValueError:
                return 400, {}, {"error": "body is not valid JSON"}, "application/json"
            status, resp_headers, doc = await svc.handle_predict(
                parsed, headers
            )
            return status, resp_headers, doc, "application/json"
        if path == "/chaos" and svc.faults is not None:
            if method == "GET":
                return 200, {}, {"chaos": svc.faults.snapshot()}, "application/json"
            if method == "POST":
                try:
                    parsed = json.loads(body) if body else {}
                except ValueError:
                    return 400, {}, {"error": "body is not valid JSON"}, "application/json"
                status, headers, doc = svc.handle_chaos(parsed)
                return status, headers, doc, "application/json"
            return 405, {}, {"error": "use GET or POST"}, "application/json"
        return 404, {}, {"error": f"no such endpoint {path!r}"}, "application/json"

    async def _handle_connection(self, reader, writer) -> None:
        svc = self.service
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                endpoint = urlsplit(target).path
                svc.metrics.inc("repro_requests_total", endpoint=endpoint)
                t0 = _time.perf_counter()
                try:
                    status, extra, doc, ctype = await self._route(
                        method, target, body, headers
                    )
                except Exception as exc:  # never tear the connection down
                    svc.metrics.inc("repro_evaluation_errors_total")
                    status, extra, doc, ctype = (
                        500, {}, {"error": f"internal error: {exc}"}, "application/json"
                    )
                svc.metrics.observe(endpoint, _time.perf_counter() - t0)
                svc.metrics.inc("repro_responses_total", code=str(status))
                payload = (
                    doc.encode() if isinstance(doc, str) else json.dumps(doc).encode()
                )
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not svc.draining
                )
                writer.write(
                    self._response(status, payload, ctype, extra, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown cancelling an idle keep-alive connection:
            # end it quietly (asyncio's stream wrapper retrieves the
            # handler task's exception and would log the cancellation).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, shed new predictions with
        503, let in-flight requests finish (bounded by *grace* seconds),
        then stop.  Clients mid-request get their complete response with
        ``Connection: close``; clients arriving late get a fast 503."""
        self.service.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = asyncio.get_running_loop().time() + grace
        try:
            await asyncio.wait_for(
                self.service.batcher.drain(),
                timeout=max(0.0, deadline - asyncio.get_running_loop().time()),
            )
        except asyncio.TimeoutError:
            pass
        while self._connections:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            await asyncio.wait(
                list(self._connections),
                timeout=remaining,
                return_when=asyncio.ALL_COMPLETED,
            )
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections park in readline(); cancel them so
        # shutdown doesn't leave pending tasks behind on the loop.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.service.close()


class ServiceThread:
    """Run a :class:`ServiceServer` on a background thread (tests, the
    load-generator benchmark, and anything else that wants an in-process
    server with a real socket)."""

    def __init__(self, service: PredictionService, host: str = "127.0.0.1", port: int = 0):
        self.server = ServiceServer(service, host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def start(self) -> tuple[str, int]:
        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.server.start())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return self.address

    def drain(self, grace: float = 10.0) -> None:
        """Gracefully drain the server from any thread, then stop."""
        if self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(grace), self._loop
            )
            try:
                future.result(timeout=grace + 10)
            except Exception:
                pass
        self.stop()

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self._loop = None
