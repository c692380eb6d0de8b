"""End-to-end tests for tracing and per-phase profiling in the funnel.

The observability tentpole's contract: (1) a traced ``POST /predict``
is **bit-identical** to an untraced one (spans observe wall clocks
only, never the seeded RNG streams); (2) a cold request's trace shows
every funnel stage -- admission, dedup, cache, batch, engine -- with
the engine span subdivided into sweep/match/sample buckets; (3) traces
propagate over the ``X-Repro-Trace`` header and export via
``GET /trace``; (4) stage durations land in per-stage Prometheus
histograms next to the queue-depth and batch-occupancy gauges; and (5)
``--log-json`` emits one structured line per request.
"""

import io
import json

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.obs import Tracer
from repro.service import PredictionService, ServiceClient, ServiceThread
from repro.simnet import perseus

from .test_service_e2e import (
    direct_predict,
    jacobi_request,
    run_service,
    serve,
)

pytestmark = pytest.mark.service

SPEC = perseus(16)


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


class TestTracedBitIdentity:
    """Tracing must not perturb the reproducibility contract."""

    @pytest.mark.parametrize("batched", [True, False])
    def test_traced_equals_untraced_and_direct(self, db, batched):
        # Jacobi is static and runs batched; the task farm is divergent
        # and runs on the per-run engine.
        request = jacobi_request(runs=4) if batched else {
            "model": "taskfarm", "model_params": {"n_tasks": 16},
            "nprocs": 4, "runs": 4, "seed": 7,
        }
        with serve(db) as (_svc, client):
            untraced = client.predict(**request)
        with serve(db, tracer=Tracer()) as (_svc, client):
            traced = client.predict(**request)
        assert traced["times"] == untraced["times"]
        assert traced["times"] == direct_predict(db, request).times

    def test_untraced_service_has_no_trace_surface(self, db):
        async def scenario(service):
            status, headers, _doc = await service.handle_predict(
                jacobi_request()
            )
            return status, headers

        status, headers = run_service(db, scenario)
        assert status == 200
        assert "X-Repro-Trace" not in headers


class TestTraceStages:
    def test_cold_request_traces_every_funnel_stage(self, db):
        tracer = Tracer()

        async def scenario(service):
            status, headers, _doc = await service.handle_predict(
                jacobi_request(), {"x-repro-trace": "stage-probe"}
            )
            return status, headers

        status, headers = run_service(db, scenario, tracer=tracer)
        assert status == 200
        assert headers["X-Repro-Trace"] == "stage-probe"
        doc = tracer.get("stage-probe")
        assert doc is not None
        names = [s["name"] for s in doc["spans"]]
        # The acceptance bar: at least five distinct funnel stages.
        for stage in ("admission", "dedup", "cache", "batch", "engine",
                      "request"):
            assert stage in names, f"missing stage {stage!r} in {names}"
        assert len(set(names)) >= 5
        # Engine time is subdivided into the PEVPM-style phase buckets.
        for phase in ("engine.sweep", "engine.match", "engine.sample",
                      "engine.serialize"):
            assert phase in names, f"missing phase {phase!r} in {names}"
        spans = {s["name"]: s for s in doc["spans"]}
        assert spans["cache"]["attrs"]["tier"] == "miss"
        assert spans["dedup"]["attrs"]["role"] == "leader"
        assert spans["admission"]["attrs"]["status"] == "admitted"
        assert spans["engine"]["attrs"]["batch_size"] == 1
        assert spans["request"]["attrs"]["served_from"] == "engine"
        # Synthetic phase children nest under the engine span and stay
        # within its envelope.
        engine = spans["engine"]
        sweep = spans["engine.sweep"]
        assert sweep["parent_id"] == engine["span_id"]
        assert sweep["attrs"]["synthetic"] is True
        assert sweep["start_ms"] >= engine["start_ms"] - 1e-6
        phase_total = sum(
            spans[p]["duration_ms"]
            for p in ("engine.sweep", "engine.match", "engine.sample",
                      "engine.serialize")
        )
        assert phase_total <= engine["duration_ms"] + 1e-3

    def test_cache_hit_trace_shows_tier(self, db):
        tracer = Tracer()

        async def scenario(service):
            await service.handle_predict(
                jacobi_request(), {"x-repro-trace": "warm-1"}
            )
            status, _h, doc = await service.handle_predict(
                jacobi_request(), {"x-repro-trace": "warm-2"}
            )
            return status, doc

        status, doc = run_service(db, scenario, tracer=tracer)
        assert status == 200
        assert doc["served_from"] == "cache"
        warm = tracer.get("warm-2")
        spans = {s["name"]: s for s in warm["spans"]}
        assert spans["cache"]["attrs"]["tier"] == "memory"
        # A cache hit never reaches the engine.
        assert "engine" not in spans
        assert spans["request"]["attrs"]["served_from"] == "cache"

    def test_hostile_header_value_falls_back_to_generated_id(self, db):
        tracer = Tracer()

        async def scenario(service):
            _s, headers, _d = await service.handle_predict(
                jacobi_request(), {"x-repro-trace": "bad id\nwith junk"}
            )
            return headers

        headers = run_service(db, scenario, tracer=tracer)
        assigned = headers["X-Repro-Trace"]
        assert assigned != "bad id\nwith junk"
        assert tracer.get(assigned) is not None


class TestTraceHttpSurface:
    def test_header_propagation_and_trace_endpoint(self, db):
        tracer = Tracer()
        service = PredictionService(db, spec=SPEC, tracer=tracer)
        with ServiceThread(service) as thread:
            host, port = thread.address
            client = ServiceClient(host, port, trace=True)
            try:
                record = client.predict(**jacobi_request())
                assert record["served_from"] == "engine"
                tid = client.last_trace_id
                assert tid is not None
                doc = client.trace(tid)
                assert doc["trace_id"] == tid
                names = {s["name"] for s in doc["spans"]}
                assert {"cache", "engine", "request"} <= names
                listing = client.trace(limit=10)
                assert tid in [t["trace_id"] for t in listing["traces"]]
                # /metrics over HTTP carries the stage histograms and
                # the live gauges the trace fed.
                text = client.metrics_text()
                assert 'repro_stage_seconds_bucket{stage="engine"' in text
                assert 'repro_stage_seconds_bucket{stage="engine.sweep"' in text
                assert "repro_queue_depth" in text
                assert "repro_batch_occupancy" in text
                assert "repro_trace_buffer_traces" in text
            finally:
                client.close()

    def test_trace_endpoint_404_when_tracing_disabled(self, db):
        with serve(db) as (_svc, client):
            from repro.service import ServiceError

            with pytest.raises(ServiceError) as err:
                client.trace(limit=1)
            assert err.value.status == 404

    def test_unknown_trace_id_is_404(self, db):
        with serve(db, tracer=Tracer()) as (_svc, client):
            from repro.service import ServiceError

            with pytest.raises(ServiceError) as err:
                client.trace("no-such-trace")
            assert err.value.status == 404


class TestStageMetrics:
    def test_stage_histograms_and_gauges_after_traced_request(self, db):
        tracer = Tracer()

        async def scenario(service):
            await service.handle_predict(jacobi_request())
            return service.metrics

        metrics = run_service(db, scenario, tracer=tracer)
        for stage in ("admission", "dedup", "cache", "batch", "engine",
                      "engine.sweep", "engine.sample", "request"):
            assert metrics.stage_count(stage) >= 1, stage
        assert metrics.gauge("repro_queue_depth") == 0
        assert metrics.gauge("repro_batch_occupancy") == 1
        snap = metrics.snapshot()
        assert snap["stage_seconds"]["engine"]["count"] >= 1
        assert snap["gauges"]["repro_queue_depth"] == 0
        text = metrics.render_prometheus()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'repro_stage_seconds_bucket{stage="engine",le="+Inf"}' in text
        assert "# TYPE repro_queue_depth gauge" in text

    def test_disabled_tracer_records_no_stages(self, db):
        async def scenario(service):
            await service.handle_predict(jacobi_request())
            return service.metrics

        metrics = run_service(db, scenario)
        assert metrics.stage_count("engine") == 0
        assert metrics.snapshot()["stage_seconds"] == {}


class TestJsonLogging:
    def test_one_line_per_request_with_correlation_fields(self, db):
        stream = io.StringIO()
        tracer = Tracer()

        async def scenario(service):
            await service.handle_predict(
                jacobi_request(), {"x-repro-trace": "log-probe"}
            )
            await service.handle_predict(
                jacobi_request(),
                {"x-repro-trace": "log-probe-2", "x-repro-attempt": "2"},
            )
            await service.handle_predict({"model": "nope"})

        run_service(
            db, scenario, tracer=tracer, log_json=True, log_stream=stream
        )
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert len(lines) == 3
        cold, warm, bad = lines
        assert cold["event"] == "predict"
        assert cold["trace_id"] == "log-probe"
        assert cold["status"] == 200
        assert cold["served_from"] == "engine"
        assert cold["cache_tier"] == "miss"
        assert cold["batch_id"] >= 1
        assert "attempt" not in cold
        assert warm["served_from"] == "cache"
        assert warm["cache_tier"] == "memory"
        assert warm["attempt"] == 2
        assert "batch_id" not in warm
        assert bad["status"] == 400
        assert "error" in bad

    def test_log_json_without_tracer_still_logs(self, db):
        stream = io.StringIO()

        async def scenario(service):
            await service.handle_predict(jacobi_request())

        run_service(db, scenario, log_json=True, log_stream=stream)
        (line,) = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert line["status"] == 200
        assert line["served_from"] == "engine"
        assert "trace_id" not in line
