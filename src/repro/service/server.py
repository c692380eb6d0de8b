"""The asyncio prediction server.

A stdlib-only HTTP/1.1 server (on the wire layer of :mod:`.http`)
exposing the PEVPM engine and the MPIBench distribution database:

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
memory tier (a hit answers at once with its stored response body) ->
disk cache (:mod:`repro.cas`) -> the evaluation queue
(:mod:`.batcher`: one entry per key, shared by identical requests,
429 when full, batching what queues while the evaluator is busy) ->
:func:`~repro.pevpm.predict.evaluate_with_precision`.  Deadlines
produce 504 without cancelling the evaluation (the queue owns it, and
its result still warms the cache).  Every stage preserves the
reproducibility contract: a served response's ``times`` are
bit-identical to the same ``predict(...)`` call made directly with the
seed and engine flags the response echoes back.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import signal
import time as _time
from urllib.parse import parse_qsl, urlsplit

from ..cas import LRU
from ..mpibench.results import DistributionDB
from ..obs import ENGINE_PHASES, JsonLogger, Tracer, clean_trace_id, merge_phases
from ..pevpm.machine import ModelDeadlock
from ..pevpm.parallel import RunGroup, as_seed_sequence
from ..pevpm.predict import (
    PredictionCache,
    build_prediction,
    draws_as_fixed,
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
from .faults import FaultPlan
from .http import HTTPServer, LoopThread
from .jobs import BreakerOpen, CircuitBreaker, QueueFull
from .metrics import ServiceMetrics
from .records import MODELS, PredictRequest, RequestError, prediction_record

__all__ = ["PredictionService", "ServiceServer", "ServiceThread"]

#: response bodies one memory-tier entry keeps: one per ``db`` ref
#: seen, the oldest dropped first, so a client varying the ref cannot
#: grow an entry without bound
_BODIES_PER_ENTRY = 4


class _Cached:
    """A memory-tier entry: one finished document and the ``/predict``
    response bodies rendered from it.  A body also depends on the one
    request field a record echoes that its key does not fix -- the
    ``db`` ref (an alias and the fingerprint it names share a key) --
    so it is kept per ref."""

    __slots__ = ("doc", "bodies")

    def __init__(self, doc: dict):
        self.doc = doc
        self.bodies: dict[str | None, bytes] = {}


class PredictionService:
    """Request funnel + engine glue; protocol-agnostic core of the server."""

    def __init__(
        self,
        db: DistributionDB,
        spec=None,
        *,
        cache_dir=None,
        lru_size: int = 1024,
        max_batch: int = 8,
        queue_limit: int = 64,
        deadline_s: float = 30.0,
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
        self.deadline_s = deadline_s
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
        # The prediction cache: an LRU of finished documents with their
        # rendered response bodies (the memory tier, :class:`_Cached`)
        # in front of the optional on-disk store shared by every process
        # writing the directory.  Keys are content-addressed request
        # keys, so a hit is by construction bit-identical to
        # re-evaluating the request.
        self.lru = LRU(lru_size)
        self.disk = PredictionCache(cache_dir) if cache_dir else None
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
            limit=queue_limit,
            limiter=self.tenants.admit,
            settle=self._settle,
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

    def _finish(self, group: RunGroup, target, result) -> dict:
        """Document for one finished evaluation, with the ``precision``
        provenance block (target, per-round RSE trail, convergence) when
        a *target* decided its run count."""
        t0 = _time.perf_counter()
        pred = build_prediction(group, result.outcomes, result.wall)
        doc = dict(prediction_doc(group, pred), wall_time=result.wall)
        if target is not None:
            doc["precision"] = precision_doc(target, result)
        phases = merge_phases(result.outcomes)
        if phases:
            phases["serialize"] = _time.perf_counter() - t0
            doc["phases"] = phases
        return doc

    @staticmethod
    def _evaluate_alone(pair):
        """One request's evaluation, or the exception it raised."""
        try:
            return evaluate_with_precision([pair])[0]
        except Exception as exc:
            return exc

    def _evaluate_requests(self, reqs: list[PredictRequest]) -> list:
        """Evaluate one micro-batch (runs on the evaluator thread).

        The batch is whatever queued while the previous one evaluated.
        All requests' ``(group, target)`` pairs go through **one**
        :func:`~repro.pevpm.predict.evaluate_with_precision` call: a
        fixed-``runs`` request is the one-round case and finishes in its
        first round, and each later round is a single ``evaluate_groups``
        dispatch covering the still-active adaptive requests.
        Batch-mates share only this call: each keeps its own
        ``RunGroup`` and seed streams, and programs, models and timings
        are cached per process anyway.  A failure (e.g. a deadlocking
        model) falls back to per-request evaluation so one poisoned
        request cannot fail its batch-mates.  Returns one document or
        exception per request.

        Evaluation stays in this process, as every evaluation does; more
        cores serve through more shards (``repro serve --shards N``).
        """
        if self.faults is not None:
            self.faults.on_evaluate()
        results: list = [None] * len(reqs)
        pairs: list[tuple] = []
        owners: list[int] = []
        for i, req in enumerate(reqs):
            try:
                pair = (self._group_for(req), req.precision_target())
            except Exception as exc:
                results[i] = exc
                continue
            pairs.append(pair)
            owners.append(i)
        if not pairs:
            return results
        try:
            done = evaluate_with_precision(pairs)
        except Exception:
            done = [self._evaluate_alone(pair) for pair in pairs]
        for i, (group, target), result in zip(owners, pairs, done):
            results[i] = (
                result if isinstance(result, Exception)
                else self._finish(group, target, result)
            )
        return results

    # -- request funnel (event-loop thread) -----------------------------------
    async def _predict(
        self, req: PredictRequest, key: str, trace=None,
        tenant: str | None = None,
    ) -> tuple[dict, str]:
        """Resolve one validated request to (document, served-from).

        Only a new key asks the breaker: a request joining an entry
        already queued adds no engine work.
        """
        doc = self._cache_get(key, trace)
        if doc is not None:
            return doc, "cache"
        if key not in self.batcher and not self.breaker.allow():
            raise BreakerOpen(self.breaker.retry_after)
        try:
            return await self.batcher.submit(key, req, trace, tenant)
        except (QueueFull, TenantThrottled):
            # A shed half-open probe frees the probe slot, or the
            # breaker wedges open until restart.
            self.breaker.release_probe()
            raise

    def _settle(self, key: str, req: PredictRequest, result) -> None:
        """Account one finished evaluation (on the event loop, before
        its key leaves the queue), whether or not anyone still waits.

        The breaker watches engine *health*: infrastructure failures
        (an evaluator crash) count against it; request-shaped failures
        (deadlocking models, bad requests) only free a probe slot.  A
        document is stored in the cache tiers.
        """
        if isinstance(result, (ModelDeadlock, RequestError)):
            self.breaker.release_probe()
        elif isinstance(result, BaseException):
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
            self._cache_store(req, key, result)

    def _cache_get(self, key: str, trace=None) -> dict | None:
        """Memory tier, then disk (promoting a hit); traced as a ``cache``
        span whose ``tier`` is ``memory``, ``disk`` or ``miss``."""
        start = None if trace is None else trace.now()
        entry, tier = self.lru.get(key), "memory"
        doc = None if entry is None else entry.doc
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

    def _memory_hit(
        self, req: PredictRequest, key: str, fingerprint: str, trace=None
    ) -> bytes | None:
        """The response body of a memory-tier hit, or ``None`` on a
        miss, which records nothing: :meth:`_cache_get` counts it.

        A hit is counted and traced as :meth:`_cache_get` does.  Its
        body is rendered on the entry's first hit with this ``db`` ref
        and reused until the entry is evicted or replaced."""
        start = None if trace is None else trace.now()
        entry = self.lru.get(key)
        if entry is None:
            return None
        self.metrics.inc("repro_cache_hits_total", tier="memory")
        if trace is not None:
            trace.add_span("cache", start, trace.now(), tier="memory")
        body = entry.bodies.get(req.db)
        if body is None:
            if len(entry.bodies) >= _BODIES_PER_ENTRY:
                del entry.bodies[next(iter(entry.bodies))]
            record = self._record(req, entry.doc, "cache", fingerprint, key)
            body = entry.bodies[req.db] = json.dumps(record).encode()
        return body

    def _remember(self, key: str, doc: dict) -> None:
        evicted = self.lru.put(key, _Cached(doc))
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

        An adaptive result is also stored -- with the ``precision``
        provenance stripped -- under the key of the fixed request at
        the achieved run count, when that request draws the same
        chunks: a stopping rule that stopped at its first total.  A
        later ``runs=N`` request is then a cache hit instead of a
        re-evaluation.
        """
        self._cache_put(key, doc)
        runs = len(doc["times"])
        if req.adaptive and draws_as_fixed(runs, req.vector_batch):
            fixed_doc = {k: v for k, v in doc.items() if k != "precision"}
            fingerprint = (
                getattr(req, "_registry_fpr", None) or self.db_fingerprint
            )
            self._cache_put(req.fixed_key(fingerprint, runs), fixed_doc)

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
        buffer behind ``GET /trace``.  Every call returns a document of
        its own, which the caller may change.
        """
        status, extra, doc = await self._serve_predict(body, headers)
        if isinstance(doc, bytes):
            doc = json.loads(doc)
        return status, extra, doc

    async def _serve_predict(
        self, body: object, headers: dict | None = None
    ) -> tuple[int, dict, dict | bytes]:
        """:meth:`handle_predict` as the wire needs it: a memory-tier
        hit's doc is its stored JSON body, which the server writes as
        is."""
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
        # A memory hit is answered here, before any task is made, so no
        # admission, breaker or deadline applies to it.
        hit = self._memory_hit(req, key, fingerprint, trace)
        if hit is not None:
            return 200, {}, hit, "cache"
        deadline = req.deadline_s if req.deadline_s is not None else self.deadline_s
        try:
            # A caller hitting its deadline only stops waiting: the
            # queue still settles the evaluation into the cache.
            doc, source = await asyncio.wait_for(
                self._predict(req, key, trace, tenant), timeout=deadline
            )
        except asyncio.TimeoutError:
            self.metrics.inc("repro_deadline_exceeded_total")
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
        record = self._record(req, doc, source, fingerprint, key)
        if source == "engine":
            # Spend accounting: how many MC runs each engine-served
            # prediction cost, split by who decided the count.
            self.metrics.observe_runs(
                record["runs"], "adaptive" if req.adaptive else "fixed"
            )
        return 200, {}, record, source

    def _record(
        self, req: PredictRequest, doc: dict, source: str, fingerprint: str,
        key: str,
    ) -> dict:
        """The response record of *req*, served *doc* from *source*."""
        pred = prediction_from_doc(doc)
        pred.cached = source != "engine"
        pred.wall_time = float(doc.get("wall_time", 0.0))
        if pred.precision is not None:
            # The record must not share the cached document's block: a
            # caller may change its record, and later hits render *doc*.
            pred.precision = copy.deepcopy(pred.precision)
        record = prediction_record(
            pred,
            seed=req.seed,
            vector_batch=req.vector_batch,
            nic_serialisation=req.nic_serialisation,
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
        return record

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
            "inflight": self.batcher.inflight,
            "queue_limit": self.batcher.limit,
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


def _json_body(body: bytes):
    """A request body's JSON value; an empty body is ``{}``."""
    try:
        return json.loads(body) if body else {}
    except ValueError:
        raise RequestError("body is not valid JSON") from None


def _tenant(headers: dict) -> str:
    """The request's ``X-Repro-Tenant``, validated."""
    try:
        return clean_tenant(headers.get("x-repro-tenant"))
    except RegistryError as exc:
        raise RequestError(str(exc)) from None


#: routes at one fixed path
_FIXED_ROUTES = frozenset(
    {"/healthz", "/metrics", "/trace", "/predict", "/chaos"}
)
#: collection -> its route templates, by the number of path parts below it
_COLLECTION_ROUTES = {
    "/models": ("/models", "/models/{name}"),
    "/programs": ("/programs", "/programs/{ref}"),
    "/distributions": (
        "/distributions", "/distributions/{ref}", "/distributions/{ref}/alias",
    ),
}


def _endpoint(path: str) -> str:
    """The ``endpoint`` metric label of a request for *path*: the
    template of the route :meth:`ServiceServer._route` takes, or
    ``"unrouted"`` for every path none serves, so no client can add
    series or latency reservoirs."""
    if path in _FIXED_ROUTES:
        return path
    for collection, templates in _COLLECTION_ROUTES.items():
        if path == collection or path.startswith(collection + "/"):
            parts = [p for p in path.split("/") if p][1:]
            if len(parts) < len(templates) and parts[1:] in ([], ["alias"]):
                return templates[len(parts)]
    return "unrouted"


class ServiceServer(HTTPServer):
    """HTTP front-end binding a :class:`PredictionService` to a socket."""

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(host, port)
        self.service = service

    @property
    def draining(self) -> bool:
        return self.service.draining

    async def respond(self, method, target, headers, body):
        """Route one request, with its endpoint and status metrics.  The
        one text document is ``/metrics``; a memory-tier ``/predict`` hit
        arrives as its stored JSON body; every other answer is encoded
        here."""
        svc = self.service
        split = urlsplit(target)
        endpoint = _endpoint(split.path)
        svc.metrics.inc("repro_requests_total", endpoint=endpoint)
        t0 = _time.perf_counter()
        try:
            status, extra, doc = await self._route(method, split, headers, body)
        except RequestError as exc:
            status, extra, doc = 400, {}, {"error": str(exc)}
        except Exception as exc:  # never tear the connection down
            svc.metrics.inc("repro_evaluation_errors_total")
            status, extra, doc = 500, {}, {"error": f"internal error: {exc}"}
        svc.metrics.observe(endpoint, _time.perf_counter() - t0)
        svc.metrics.inc("repro_responses_total", code=str(status))
        if isinstance(doc, str):
            return status, doc.encode(), "text/plain; version=0.0.4", extra
        if not isinstance(doc, bytes):
            doc = json.dumps(doc).encode()
        return status, doc, "application/json", extra

    async def _route(self, method: str, split, headers: dict, body: bytes):
        """Dispatch one request -> (status, headers, doc).  A malformed
        body or tenant header raises :class:`RequestError` (a 400)."""
        svc = self.service
        path = split.path
        query = dict(parse_qsl(split.query))
        if path == "/healthz" and method == "GET":
            return 200, {}, svc.healthz()
        if path == "/metrics" and method == "GET":
            return 200, {}, svc.metrics.render_prometheus()
        if path == "/trace" and method == "GET":
            tracer = svc.tracer
            if tracer is None:
                return 404, {}, {"error": "tracing disabled"}
            trace_id = query.get("id")
            if trace_id:
                doc = tracer.get(trace_id)
                if doc is None:
                    return 404, {}, {"error": f"no trace {trace_id!r}"}
                return 200, {}, doc
            try:
                limit = int(query.get("limit", "20"))
            except ValueError:
                return 400, {}, {"error": "limit must be an integer"}
            return 200, {}, {"traces": tracer.traces(limit)}
        if path == "/models" or path.startswith("/models/"):
            if method != "GET":
                return 405, {}, {"error": "use GET"}
            parts = [p for p in path.split("/") if p][1:]
            if len(parts) > 1:
                return 404, {}, {"error": f"no such endpoint {path!r}"}
            return svc.handle_models(parts[0] if parts else None)
        if path == "/programs" or path.startswith("/programs/"):
            tenant = _tenant(headers)
            parts = [p for p in path.split("/") if p][1:]
            if not parts:
                if method == "GET":
                    return 200, {}, {"programs": svc.programs.entries()}
                if method != "POST":
                    return 405, {}, {"error": "use GET or POST"}
                return svc.handle_program_upload(_json_body(body), tenant)
            if len(parts) == 1:
                if method == "GET":
                    return svc.handle_program_get(parts[0])
                if method == "DELETE":
                    return svc.handle_program_delete(parts[0], tenant)
                return 405, {}, {"error": "use GET or DELETE"}
            return 404, {}, {"error": f"no such endpoint {path!r}"}
        if path == "/distributions" or path.startswith("/distributions/"):
            tenant = _tenant(headers)
            parts = [p for p in path.split("/") if p][1:]
            if not parts:
                if method == "GET":
                    return svc.handle_distributions(query)
                if method != "POST":
                    return 405, {}, {"error": "use GET or POST"}
                return await svc.handle_registry_upload(
                    _json_body(body), tenant
                )
            if len(parts) == 1:
                if method == "GET":
                    return svc.handle_registry_get(parts[0], query)
                if method == "DELETE":
                    return svc.handle_registry_delete(parts[0], tenant)
                return 405, {}, {"error": "use GET or DELETE"}
            if len(parts) == 2 and parts[1] == "alias":
                if method != "PUT":
                    return 405, {}, {"error": "use PUT"}
                return svc.handle_registry_alias(
                    parts[0], _json_body(body), tenant
                )
            return 404, {}, {"error": f"no such endpoint {path!r}"}
        if path == "/predict":
            if method != "POST":
                return 405, {}, {"error": "use POST"}
            return await svc._serve_predict(_json_body(body), headers)
        if path == "/chaos" and svc.faults is not None:
            if method == "GET":
                return 200, {}, {"chaos": svc.faults.snapshot()}
            if method == "POST":
                return svc.handle_chaos(_json_body(body))
            return 405, {}, {"error": "use GET or POST"}
        return 404, {}, {"error": f"no such endpoint {path!r}"}

    # -- lifecycle -----------------------------------------------------------
    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, shed new predictions with
        503, let in-flight requests finish (bounded by *grace* seconds),
        then stop.  Clients mid-request get their complete response with
        ``Connection: close``; clients arriving late get a fast 503."""
        self.service.draining = True
        if self._server is not None:
            self._server.close()
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

    def run(self, grace: float, log=None) -> None:
        """Serve in the foreground until SIGTERM or SIGINT, then drain
        (bounded by *grace* seconds) and stop: the shutdown path of a
        standalone ``repro serve`` and of every shard it supervises.
        *log*, if given, receives the listening and draining lines."""
        log = log or (lambda line: None)

        async def _serve() -> None:
            host, port = await self.start()
            log(f"repro service listening on http://{host}:{port}")
            loop = asyncio.get_running_loop()
            stop_signal = asyncio.Event()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop_signal.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-Unix loop: fall back to KeyboardInterrupt
            try:
                await stop_signal.wait()
                log(f"draining (grace {grace:g}s)...")
                await self.drain(grace)
            finally:
                await self.stop()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:  # pragma: no cover - signal-handler race
            log("shutting down")

    async def stop(self) -> None:
        await super().stop()
        self.service.close()


class ServiceThread(LoopThread):
    """Run a :class:`ServiceServer` on a background thread (tests, the
    load-generator benchmark, and anything else that wants an in-process
    server with a real socket)."""

    def __init__(self, service: PredictionService, host: str = "127.0.0.1", port: int = 0):
        super().__init__(ServiceServer(service, host, port))

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
