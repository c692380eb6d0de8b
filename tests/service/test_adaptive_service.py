"""Adaptive (precision-targeted) requests through the service funnel.

The service-level contract: ``target_rse`` replaces ``runs`` (mutually
exclusive), the engine decides the spend, the response carries the
decision trail in ``precision``, and the achieved result is cached so a
later fixed-``runs`` request for the same content hits it bit-identically.
"""

import asyncio

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.service import PredictionService
from repro.service import records as service_records
from repro.simnet import perseus

from .test_service_e2e import direct_jacobi, jacobi_request, run_service, serve

pytestmark = pytest.mark.service

SPEC = perseus(16)


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def adaptive_request(**overrides) -> dict:
    request = jacobi_request()
    del request["runs"]
    request["target_rse"] = 0.5
    request.update(overrides)
    return request


class TestAdaptiveServing:
    def test_engine_served_with_precision_block(self, db):
        with serve(db) as (_service, client):
            record = client.predict(**adaptive_request())
        assert record["served_from"] == "engine"
        p = record["precision"]
        assert p["target"]["rse"] == 0.5
        assert p["converged"] is True
        assert p["achieved_rse"] <= p["target"]["rse"]
        assert record["runs"] == sum(r["added"] for r in p["rounds"])
        assert len(record["times"]) == record["runs"]

    def test_runs_vary_with_target(self, db):
        loose = adaptive_request()
        tight = adaptive_request(target_rse=1e-9, max_runs=8)
        with serve(db) as (_service, client):
            a = client.predict(**loose)
            b = client.predict(**tight)
        assert a["runs"] < b["runs"]
        assert b["runs"] == 8
        assert b["precision"]["converged"] is False

    def test_loose_target_spends_fewer_runs_than_fixed_16(self, db):
        """The issue's acceptance criterion at the service boundary."""
        with serve(db) as (_service, client):
            adaptive = client.predict(**adaptive_request(target_rse=0.05))
            fixed = client.predict(**jacobi_request(runs=16))
        assert adaptive["runs"] < fixed["runs"] == 16

    def test_fixed_runs_request_hits_adaptive_result(self, db, tmp_path):
        # Adaptive requests chunk at min_runs; a loose target stops at
        # its first total, one chunk, which a fixed request of that
        # many runs draws alike.
        with serve(db, cache_dir=tmp_path) as (_service, client):
            adaptive = client.predict(**adaptive_request(min_runs=4))
            fixed = client.predict(**jacobi_request(runs=adaptive["runs"]))
        assert adaptive["runs"] == 4
        assert fixed["served_from"] == "cache"
        assert fixed["times"] == adaptive["times"]
        assert "precision" not in fixed

    @pytest.mark.parametrize("target_rse, entries", [(1e-9, 1), (0.9, 2)])
    def test_fixed_twin_stored_only_when_the_chunks_agree(
        self, db, tmp_path, target_rse, entries
    ):
        adaptive = adaptive_request(seed=5, target_rse=target_rse, max_runs=16)

        async def scenario(service):
            _, _, first = await service.handle_predict(adaptive)
            stored = (
                len(service.lru), len(list(tmp_path.rglob("predict-*.json")))
            )
            fixed = jacobi_request(seed=5, runs=first["runs"])
            return first, stored, fixed, (await service.handle_predict(fixed))

        first, stored, fixed, (_, _, served) = run_service(
            db, scenario, cache_dir=tmp_path
        )
        assert first["runs"] == (16 if entries == 1 else 4)
        assert stored == (entries, entries)
        assert served["served_from"] == ("cache" if entries == 2 else "engine")
        assert served["times"] == direct_jacobi(db, fixed).times

    def test_repeat_adaptive_request_cached(self, db, tmp_path):
        request = adaptive_request()
        with serve(db, cache_dir=tmp_path) as (_service, client):
            first = client.predict(**request)
            second = client.predict(**request)
        assert first["served_from"] == "engine"
        assert second["served_from"] == "cache"
        assert second["times"] == first["times"]
        assert second["precision"] == first["precision"]


class TestPoisonedBatch:
    def test_adaptive_and_fixed_batch_mates_survive_a_deadlock(
        self, db, monkeypatch
    ):
        def all_receive(ctx):
            yield ctx.recv((ctx.procnum + 1) % 2)

        monkeypatch.setitem(
            service_records.MODELS,
            "deadlock",
            ({}, lambda spec, params: (all_receive, None)),
        )
        bad = {"model": "deadlock", "nprocs": 2, "runs": 2}
        fixed = jacobi_request()
        adaptive = adaptive_request(target_rse=1e-9, max_runs=8)

        async def together(service):
            # Fired together so all three land in one micro-batch.
            replies = await asyncio.gather(
                service.handle_predict(bad),
                service.handle_predict(fixed),
                service.handle_predict(adaptive),
            )
            return replies, service.metrics

        async def alone(service):
            return await service.handle_predict(adaptive)

        replies, metrics = run_service(db, together)
        (bad_status, _, bad_doc), (fixed_status, _, fixed_doc), (
            adaptive_status, _, adaptive_doc
        ) = replies
        assert metrics.counter("repro_batches_total") == 1
        assert bad_status == 422
        assert bad_doc["error"] == "model deadlock"
        assert fixed_status == 200
        assert fixed_doc["times"] == direct_jacobi(db, fixed).times
        assert adaptive_status == 200
        alone_status, _, alone_doc = run_service(db, alone)
        assert alone_status == 200
        assert adaptive_doc["times"] == alone_doc["times"]

        def without_walls(precision):
            rounds = [
                {k: v for k, v in r.items() if k != "wall"}
                for r in precision["rounds"]
            ]
            return dict(precision, rounds=rounds)

        assert without_walls(adaptive_doc["precision"]) == without_walls(
            alone_doc["precision"]
        )


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,needle",
        [
            ({"runs": 4}, "not both"),
            ({"target_rse": 0.0}, "target_rse"),
            ({"target_rse": -1.0}, "target_rse"),
            ({"target_rse": "tight"}, "target_rse"),
            ({"min_runs": 1}, "min_runs"),
            ({"min_runs": 32, "max_runs": 8}, "max_runs"),
        ],
    )
    def test_rejected_with_400(self, db, overrides, needle):
        body = adaptive_request(**overrides)

        async def scenario(service):
            return await service.handle_predict(body)

        status, _, doc = run_service(db, scenario)
        assert status == 400
        assert needle in doc["error"]

    def test_bounds_require_target(self, db):
        body = jacobi_request(min_runs=4)

        async def scenario(service):
            return await service.handle_predict(body)

        status, _, doc = run_service(db, scenario)
        assert status == 400
        assert "min_runs" in doc["error"] or "target_rse" in doc["error"]


class TestRunsMetrics:
    def test_histogram_counts_by_mode(self, db):
        with serve(db) as (service, client):
            client.predict(**adaptive_request())
            client.predict(**jacobi_request(runs=3))
            client.predict(**jacobi_request(runs=3, seed=8))
            text = client.metrics_text()
        assert service.metrics.runs_count("adaptive") == 1
        assert service.metrics.runs_count("fixed") == 2
        assert service.metrics.runs_sum("fixed") == 6
        assert 'repro_prediction_runs_bucket{mode="adaptive"' in text
        assert 'repro_prediction_runs_count{mode="fixed"} 2' in text

    def test_cache_hits_not_counted(self, db, tmp_path):
        request = adaptive_request()
        with serve(db, cache_dir=tmp_path) as (service, client):
            client.predict(**request)
            client.predict(**request)  # cache hit
            assert service.metrics.runs_count("adaptive") == 1
