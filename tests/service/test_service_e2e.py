"""End-to-end tests for the prediction service.

The contract under test (ISSUE: the service's tentpole guarantee): a
response served through the whole funnel -- HTTP parsing, cache tiers,
singleflight, admission, micro-batching, the evaluator thread -- carries
``times`` bit-identical to the same :func:`repro.pevpm.predict` call
made directly with the seed and engine flags the response echoes back.

HTTP-level tests run a real server on a background thread
(:class:`~repro.service.ServiceThread`); funnel-stage tests
(singleflight, coalescing, backpressure) drive
:meth:`PredictionService.handle_predict` directly on one event loop,
where request interleaving is deterministic.
"""

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager

import pytest

from repro.apps.fft import fft_model
from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import VECTOR_BATCH, predict, timing_from_db
from repro.pevpm.machine import ModelDeadlock
from repro.service import MODELS, PredictionService, ServiceClient, ServiceThread
from repro.service import records as service_records
from repro.service.records import PredictRequest
from repro.simnet import perseus

pytestmark = pytest.mark.service

SPEC = perseus(16)
ITER = 20  # keep served jacobi evaluations fast


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


@contextmanager
def serve(db, **kwargs):
    service = PredictionService(db, spec=SPEC, **kwargs)
    with ServiceThread(service) as thread:
        host, port = thread.address
        client = ServiceClient(host, port)
        try:
            yield service, client
        finally:
            client.close()


def jacobi_request(**overrides) -> dict:
    request = {
        "model": "jacobi",
        "model_params": {"iterations": ITER},
        "nprocs": 4,
        "runs": 4,
        "seed": 7,
    }
    request.update(overrides)
    return request


def direct_jacobi(db, request: dict):
    """The direct ``predict(...)`` call a served request must match."""
    params = {
        "iterations": request.get("model_params", {}).get("iterations", 100),
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }
    return predict(
        parse_jacobi(),
        request["nprocs"],
        timing_from_db(db, mode="distribution", nprocs=request["nprocs"]),
        runs=request.get("runs", 16),
        seed=request.get("seed", 0),
        params=params,
    )


def direct_predict(db, request: dict):
    """The direct ``predict(...)`` call a served request of any model
    must match."""
    req = PredictRequest.from_dict(request)
    model, vm_params = req.build_model(SPEC)
    return predict(
        model, req.nprocs,
        timing_from_db(db, mode="distribution", nprocs=req.nprocs),
        runs=req.runs, seed=req.seed, params=vm_params,
    )


def hold_evaluator(service, release: threading.Event) -> None:
    """Hold every evaluation until *release* is set (a test releases
    it in a ``finally``): requests that arrive meanwhile queue behind
    the busy evaluator and keep their admission slots."""
    inner = service.batcher._evaluate

    def held(reqs):
        assert release.wait(timeout=30), "evaluator never released"
        return inner(reqs)

    service.batcher._evaluate = held


def run_service(db, scenario, **kwargs):
    """Run an async *scenario(service)* against a funnel (no sockets)."""
    service = PredictionService(db, spec=SPEC, **kwargs)

    async def main():
        try:
            return await scenario(service)
        finally:
            service.close()

    return asyncio.run(main())


class TestReproducibilityContract:
    def test_served_times_bit_identical_to_direct_predict(self, db):
        request = jacobi_request()
        with serve(db) as (_service, client):
            record = client.predict(**request)
        direct = direct_jacobi(db, request)
        assert record["times"] == direct.times
        # The response echoes everything needed to replay it.
        assert record["seed"] == 7
        assert record["engine"]["vector_batch"] == 64
        assert record["engine"]["nic_serialisation"] == "tx"
        assert record["served_from"] == "engine"
        assert record["db_fingerprint"] == db.fingerprint()
        assert record["runs"] == 4

    def test_chunk_size_is_the_one_predict_picks(self, db):
        # No request field sets the chunk size, which would give times
        # no predict() call gives: a fixed request chunks at 64, an
        # adaptive one at min_runs, as predict() does.
        body = jacobi_request(nprocs=8, runs=16, seed=3)
        adaptive = jacobi_request(nprocs=8, seed=3, target_rse=1e-9,
                                  max_runs=16)
        del adaptive["runs"]

        async def scenario(service):
            return [
                await service.handle_predict(b)
                for b in (dict(body, vector_batch=8), body, adaptive)
            ]

        (rejected, _, error), (_, _, fixed), (_, _, adapt) = run_service(
            db, scenario
        )
        assert rejected == 400
        assert error["error"] == "unknown request fields: ['vector_batch']"
        assert fixed["engine"]["vector_batch"] == VECTOR_BATCH
        assert fixed["times"] == direct_jacobi(db, body).times
        direct = predict(
            parse_jacobi(), 8, timing_from_db(db, mode="distribution", nprocs=8),
            seed=3, params={"iterations": ITER, "xsize": 256,
                            "serial_time": SPEC.jacobi_serial_time},
            target_rse=1e-9, max_runs=16,
        )
        assert adapt["engine"]["vector_batch"] == 4
        assert adapt["runs"] == 16
        assert adapt["times"] == direct.times

    def test_engine_never_starts_a_process_pool(self, db):
        # The engine evaluates in the server's own process.  Both
        # requests span several evaluation steps -- the fixed one two
        # chunks, the adaptive one three refinement rounds -- and both
        # must still equal the direct call.
        fixed = jacobi_request(runs=2 * VECTOR_BATCH, seed=11)
        adaptive = jacobi_request(seed=12, target_rse=1e-9, max_runs=16)
        del adaptive["runs"]
        with serve(db) as (_service, client):
            fixed_record = client.predict(**fixed)
            adaptive_record = client.predict(**adaptive)
        assert fixed_record["times"] == direct_jacobi(db, fixed).times
        assert adaptive_record["runs"] == 16
        rounds = adaptive_record["precision"]["rounds"]
        assert [r["added"] for r in rounds] == [4, 4, 8]

    def test_scalar_engine_requests_match_too(self, db):
        # The task farm is divergent, so it runs on the per-run engine.
        request = {"model": "taskfarm", "model_params": {"n_tasks": 16},
                   "nprocs": 4, "runs": 3, "seed": 7}
        with serve(db) as (_service, client):
            record = client.predict(**request)
        assert record["times"] == direct_predict(db, request).times

    def test_repeat_request_served_from_cache_identically(self, db, tmp_path):
        request = jacobi_request()
        with serve(db, cache_dir=tmp_path) as (service, client):
            first = client.predict(**request)
            second = client.predict(**request)
            assert first["served_from"] == "engine"
            assert second["served_from"] == "cache"
            assert second["times"] == first["times"]
            assert second["cached"] is True
            assert service.metrics.counter(
                "repro_cache_hits_total", tier="memory"
            ) == 1
        # A fresh service over the same disk tier still serves the entry.
        with serve(db, cache_dir=tmp_path) as (service, client):
            third = client.predict(**request)
            assert third["served_from"] == "cache"
            assert third["times"] == first["times"]
            assert service.metrics.counter(
                "repro_cache_hits_total", tier="disk"
            ) == 1

    def test_naive_mode_serves_identical_numbers(self, db):
        # Batching and caching are throughput features only: with
        # batches of one and no memory tier the numbers must not change.
        request = jacobi_request()
        with serve(db, max_batch=1, lru_size=0) as (_service, client):
            first = client.predict(**request)
            second = client.predict(**request)
        assert first["served_from"] == second["served_from"] == "engine"
        assert first["times"] == second["times"]
        assert first["times"] == direct_jacobi(db, request).times

    def test_concurrent_mixed_requests_all_bit_identical(self, db):
        jacobi_reqs = [jacobi_request(seed=s) for s in range(4)]
        fft_reqs = [
            {"model": "fft", "nprocs": 4, "runs": 3, "seed": s}
            for s in range(2)
        ]
        requests = jacobi_reqs + fft_reqs
        with serve(db) as (_service, client):
            with ThreadPoolExecutor(len(requests)) as pool:
                def call(request):
                    own = ServiceClient(client.host, client.port)
                    try:
                        return own.predict(**request)
                    finally:
                        own.close()

                records = list(pool.map(call, requests))
        for request, record in zip(jacobi_reqs, records):
            assert record["times"] == direct_jacobi(db, request).times
        timing = timing_from_db(db, mode="distribution", nprocs=4)
        for request, record in zip(fft_reqs, records[len(jacobi_reqs):]):
            direct = predict(
                fft_model(4096), 4, timing, runs=3, seed=request["seed"],
            )
            assert record["times"] == direct.times


class TestFunnelStages:
    def test_singleflight_collapses_identical_inflight_requests(self, db):
        body = jacobi_request()

        async def scenario(service):
            return await asyncio.gather(
                *(service.handle_predict(body) for _ in range(6))
            )

        service = PredictionService(db, spec=SPEC)

        async def main():
            try:
                return await scenario(service), service.metrics
            finally:
                service.close()

        responses, metrics = asyncio.run(main())
        assert all(status == 200 for status, _, _ in responses)
        served_from = sorted(doc["served_from"] for _, _, doc in responses)
        assert served_from == ["engine"] + ["singleflight"] * 5
        times = {tuple(doc["times"]) for _, _, doc in responses}
        assert len(times) == 1  # every follower got the leader's numbers
        assert metrics.counter("repro_singleflight_leads_total") == 1
        assert metrics.counter("repro_singleflight_hits_total") == 5
        # Only the leader occupied an engine slot.
        assert metrics.counter("repro_jobs_admitted_total") == 1

    def test_microbatch_coalesces_distinct_requests(self, db):
        bodies = [jacobi_request(seed=s) for s in range(5)]

        async def scenario(service):
            responses = await asyncio.gather(
                *(service.handle_predict(b) for b in bodies)
            )
            return responses, service.metrics

        responses, metrics = run_service(db, scenario, max_batch=8)
        assert all(status == 200 for status, _, _ in responses)
        # All five distinct requests queued in one event-loop turn and
        # landed in one engine batch...
        assert metrics.counter("repro_batches_total") == 1
        assert metrics.counter("repro_coalesced_requests_total") == 4
        # ...and coalescing never mixed their random draws.
        for body, (_, _, doc) in zip(bodies, responses):
            assert doc["times"] == direct_jacobi(db, body).times

    def test_queue_full_sheds_with_429(self, db):
        bodies = [jacobi_request(seed=s) for s in range(4)]

        async def scenario(service):
            responses = await asyncio.gather(
                *(service.handle_predict(b) for b in bodies)
            )
            return responses, service.metrics

        # One slot: the first request holds it until its evaluation
        # returns, and the rest, admitted in the same event-loop turn,
        # must be shed immediately.
        responses, metrics = run_service(
            db, scenario, queue_limit=1, lru_size=0
        )
        statuses = sorted(status for status, _, _ in responses)
        assert statuses == [200, 429, 429, 429]
        for status, headers, doc in responses:
            if status == 429:
                assert headers["Retry-After"] == "1"
                assert doc["inflight_limit"] == 1
                assert doc["retry_after_s"] == 1.0
        assert metrics.counter("repro_jobs_shed_total") == 3

    def test_deadline_exceeded_returns_504(self, db):
        body = jacobi_request(
            deadline_s=0.001,
            runs=32,
            model_params={"iterations": 200},
        )

        async def scenario(service):
            status, _, doc = await service.handle_predict(body)
            assert status == 504
            assert doc["error"] == "deadline exceeded"
            assert doc["deadline_s"] == 0.001
            assert service.metrics.counter(
                "repro_deadline_exceeded_total"
            ) == 1
            # The shielded evaluation completes anyway and warms the
            # cache: the retry without a deadline is a cache hit.
            retry = dict(body)
            del retry["deadline_s"]
            status, _, doc = await service.handle_predict(retry)
            assert status == 200
            assert doc["served_from"] in ("cache", "singleflight")
            return doc

        doc = run_service(db, scenario)
        direct = direct_jacobi(
            db, jacobi_request(runs=32, model_params={"iterations": 200})
        )
        assert doc["times"] == direct.times

    def test_model_deadlock_returns_422(self, db, monkeypatch):
        def all_receive(ctx):
            yield ctx.recv((ctx.procnum + 1) % 2)

        monkeypatch.setitem(
            service_records.MODELS,
            "deadlock",
            ({}, lambda spec, params: (all_receive, None)),
        )
        good = jacobi_request()
        bad = {"model": "deadlock", "nprocs": 2, "runs": 2}

        async def scenario(service):
            # Fired together so both land in one micro-batch: the
            # deadlocking request must fail alone, not its batch-mate.
            replies = await asyncio.gather(
                service.handle_predict(bad), service.handle_predict(good)
            )
            return replies, service.metrics

        replies, metrics = run_service(db, scenario)
        (bad_status, _, bad_doc), (good_status, _, good_doc) = replies
        assert metrics.counter("repro_batches_total") == 1
        assert metrics.counter("repro_coalesced_requests_total") == 1
        assert bad_status == 422
        assert bad_doc["error"] == "model deadlock"
        assert good_status == 200
        assert good_doc["times"] == direct_jacobi(db, good).times


class TestHttpSurface:
    def test_healthz(self, db):
        with serve(db, queue_limit=7) as (_service, client):
            doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["queue_limit"] == 7
        assert doc["db_fingerprint"] == db.fingerprint()
        assert set(MODELS) <= set(doc["models"])
        # Batching, dedup and caching are always on; no switch to report.
        assert not {"batching", "dedup", "caching"} & set(doc)

    def test_metrics_exposition(self, db):
        with serve(db) as (_service, client):
            client.predict(**jacobi_request())
            text = client.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="/predict"} 1' in text
        assert 'repro_responses_total{code="200"} 1' in text
        assert 'repro_request_latency_seconds{endpoint="/predict"' in text

    def test_distributions_listing_and_query(self, db):
        with serve(db) as (_service, client):
            listing = client.distributions()
            detail = client.distributions(op="isend", size=700, contention=8)
            status, _, err = client._request(
                "GET", "/distributions?op=bogus&size=1024"
            )
        assert "isend" in listing["ops"]
        assert "8x1" in listing["configs"]["isend"]
        assert detail["op"] == "isend"
        assert detail["bracketing_sizes"] == [512, 1024]
        assert detail["nearest_size"] == 512
        assert detail["mean"] > 0
        assert detail["quantiles"]["0.5"] <= detail["quantiles"]["0.99"]
        assert detail["db_fingerprint"] == db.fingerprint()
        assert status == 400

    def test_error_statuses(self, db):
        with serve(db) as (_service, client):
            bad_model, _, doc = client.predict_raw({"model": "nope", "nprocs": 4})
            not_json = client._request("POST", "/predict", None)
            missing = client._request("GET", "/nope")
            wrong_method = client._request("GET", "/predict")
        assert bad_model == 400
        assert "model must be one of" in doc["error"]
        assert not_json[0] == 400  # empty body -> no model field
        assert missing[0] == 404
        assert wrong_method[0] == 405

    def test_malformed_model_params_never_trip_the_breaker(self, db):
        # Five engine failures in a row open the breaker.  Bad parameters
        # are the client's fault: each is a 400 at ingress and counts
        # nothing, so the valid request after them is served.
        bad = [
            ("taskfarm", {"task_mean": "x"}),
            ("taskfarm", {"n_tasks": 2.5}),
            ("taskfarm", {"task_seed": -1}),
            ("taskfarm", {"task_cv": float("inf")}),
            ("taskfarm", {"task_mean": -1}),
            ("taskfarm", {"task_mean": float("nan")}),
            ("fft", {"n_points": 3}),
            ("jacobi", {"iterations": "x"}),
            ("jacobi", {"iterations": -2}),
        ]
        with serve(db) as (service, client):
            statuses = [
                client.predict_raw(
                    {"model": model, "model_params": params, "nprocs": 4}
                )[0]
                for model, params in bad
            ]
            ok, _, _ = client.predict_raw(jacobi_request())
        assert statuses == [400] * len(bad)
        assert ok == 200
        assert service.metrics.counter("repro_evaluation_errors_total") == 0
        assert service.metrics.counter("repro_bad_requests_total") == len(bad)
        assert service.breaker.state == "closed"

    def test_nprocs_dependent_params_are_400s_at_ingress(self, db):
        # The fft transpose needs n_points divisible by nprocs^2 and the
        # task farm a master plus a worker; these used to fail inside the
        # engine as 500s that counted toward opening the breaker.
        bad = [
            {"model": "fft", "nprocs": 3},
            {"model": "fft", "nprocs": 128},
            {"model": "taskfarm", "nprocs": 1},
        ]
        with serve(db) as (service, client):
            replies = [client.predict_raw(dict(doc, runs=2)) for doc in bad]
            ok, _, _ = client.predict_raw(jacobi_request())
        assert [status for status, _, _ in replies] == [400, 400, 400]
        assert "nprocs^2" in replies[0][2]["error"]
        assert "master" in replies[2][2]["error"]
        assert ok == 200
        assert service.metrics.counter("repro_evaluation_errors_total") == 0
        assert service.metrics.counter("repro_bad_requests_total") == len(bad)

    def test_http_429_and_504_end_to_end(self, db):
        # The backpressure paths over a real socket: one slot, four
        # concurrent clients, and the first admitted request's
        # evaluation held until the other three have been shed.
        release = threading.Event()
        with serve(db, queue_limit=1, lru_size=0) as (service, client):
            hold_evaluator(service, release)

            def call(seed):
                own = ServiceClient(client.host, client.port)
                try:
                    return own.predict_raw(jacobi_request(seed=seed))
                finally:
                    own.close()

            try:
                with ThreadPoolExecutor(4) as pool:
                    finished = as_completed(
                        [pool.submit(call, seed) for seed in range(4)],
                        timeout=60,
                    )
                    responses = [next(finished).result() for _ in range(3)]
                    release.set()
                    responses.append(next(finished).result())
            finally:
                release.set()
            statuses = sorted(status for status, _, _ in responses)
            assert statuses == [200, 429, 429, 429]
            retry_after = [
                headers for status, headers, _ in responses if status == 429
            ]
            assert all("Retry-After" in h for h in retry_after)
            status, _, doc = client.predict_raw(
                jacobi_request(
                    seed=99, runs=32, deadline_s=0.001,
                    model_params={"iterations": 200},
                )
            )
            assert status == 504
            assert doc["error"] == "deadline exceeded"
