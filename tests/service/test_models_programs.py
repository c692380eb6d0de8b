"""The model catalogue and the imported-program surface of the service.

* ``GET /models`` lists every registered workload (including the
  collectives-era halo/amg and the ``imported`` pseudo-model) with its
  defaulted parameters; unknown names are a 404 naming the known set.
* ``POST /programs`` imports a trace, after which ``model=imported``
  predictions are byte-identical to a direct :func:`repro.pevpm.predict`
  of the replayed program; malformed traces are a 422 taxonomy
  (structure, conservation, deadlock) that never reaches the evaluator.
* Imported refs participate in shard routing: the program fingerprint
  folds into the routing key, so a router pins each program's requests
  to one shard (stub-backend test, same harness as test_sharding).
"""

import asyncio
import json
from contextlib import contextmanager

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import predict, timing_from_db
from repro.registry import TenantManager, TenantQuota
from repro.registry.store import RegistryStore
from repro.service import (
    Backend,
    HashRing,
    MODELS,
    PredictionService,
    ServiceClient,
    ServiceError,
    ServiceThread,
    ShardRouter,
    routing_key_for,
)
from repro.simnet import perseus
from repro.trace_import import ProgramStore, parse_trace, sample_trace
from .test_sharding import StubShard, _send

pytestmark = pytest.mark.service

SPEC = perseus(16)
RING = sample_trace(nprocs=4)


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


class TestModelCatalogue:
    def test_listing_names_every_registered_workload(self, db):
        with serve(db) as (_service, client):
            doc = client.models()
        assert set(doc["models"]) == set(MODELS)
        for name in ("halo", "amg", "imported"):
            assert name in doc["models"]
        assert doc["models"]["halo"]["defaults"]["nx"] == 64

    def test_single_model_and_unknown_404(self, db):
        with serve(db) as (_service, client):
            halo = client.models("halo")
            assert halo["defaults"]["dims"] == 2
            with pytest.raises(ServiceError) as err:
                client.models("conjugate-gradient")
            assert err.value.status == 404
            assert "halo" in str(err.value)

    def test_unknown_model_on_predict_is_a_request_error(self, db):
        with serve(db) as (_service, client):
            status, _headers, doc = client.predict_raw(
                {"model": "conjugate-gradient", "nprocs": 4}
            )
        assert status == 400
        assert "model" in doc["error"]


class TestImportedPrograms:
    def test_upload_predict_bit_identical_to_direct(self, db):
        with serve(db) as (_service, client):
            meta = client.program_add(RING.to_jsonl(), name="ring4")
            assert meta["fingerprint"] == RING.fingerprint
            record = client.predict(
                model="imported",
                model_params={"program": meta["fingerprint"]},
                nprocs=4,
                runs=4,
                seed=9,
            )
        direct = predict(
            RING.model(),
            4,
            timing_from_db(db, mode="distribution", nprocs=4),
            runs=4,
            seed=9,
            vector_runs=True,
        )
        assert record["times"] == direct.times

    def test_wrong_nprocs_and_unknown_ref(self, db):
        with serve(db) as (_service, client):
            meta = client.program_add(RING.to_jsonl())
            status, _h, doc = client.predict_raw({
                "model": "imported",
                "model_params": {"program": meta["fingerprint"]},
                "nprocs": 8,
            })
            assert status == 400 and "4 rank" in doc["error"]
            status, _h, doc = client.predict_raw({
                "model": "imported",
                "model_params": {"program": "0" * 64},
                "nprocs": 4,
            })
            assert status == 404

    def test_predict_without_ref_is_a_request_error(self, db):
        with serve(db) as (_service, client):
            status, _h, doc = client.predict_raw(
                {"model": "imported", "nprocs": 4}
            )
        assert status == 400
        assert "program" in doc["error"]

    def test_export_reimports_to_same_fingerprint(self, db):
        with serve(db) as (_service, client):
            meta = client.program_add(RING.to_jsonl(), name="ring4")
            doc = client.program_get(meta["fingerprint"])
            again = client.program_add(doc["trace"])
            assert again["fingerprint"] == meta["fingerprint"]
            listing = client.programs_list()
        assert meta["fingerprint"] in {
            entry["fingerprint"] for entry in listing["programs"]
        }

    def test_delete_enforces_tenancy(self, db):
        with serve(db) as (_service, client):
            host, port = client.host, client.port
            alice = ServiceClient(host, port, tenant="alice")
            bob = ServiceClient(host, port, tenant="bob")
            try:
                meta = alice.program_add(RING.to_jsonl())
                with pytest.raises(ServiceError) as err:
                    bob.program_delete(meta["fingerprint"])
                assert err.value.status == 403
                alice.program_delete(meta["fingerprint"])
                with pytest.raises(ServiceError) as err:
                    alice.program_get(meta["fingerprint"])
                assert err.value.status == 404
            finally:
                alice.close()
                bob.close()

    def test_storage_quota_429(self, db):
        registry = RegistryStore()
        tenants = TenantManager(registry, TenantQuota(max_bytes=64))
        with serve(db, registry=registry, tenants=tenants) as (_s, client):
            status, _h, doc = client._request(
                "POST", "/programs", {"trace": RING.to_jsonl()},
                idempotent=False,
            )
        assert status == 429

    def test_program_bytes_count_toward_storage_quota(self, db):
        other = parse_trace("NPROCS 2\n0 MPI_SEND 1 64\n1 MPI_RECV 0\n")
        sizes = [
            ProgramStore().put(p, source="upload")["bytes"] for p in (RING, other)
        ]
        registry = RegistryStore()
        # Room for either program alone, not for both.
        tenants = TenantManager(registry, TenantQuota(max_bytes=sum(sizes) - 1))
        with serve(db, registry=registry, tenants=tenants) as (_s, client):
            client.program_add(RING.to_jsonl())
            status, _h, doc = client._request(
                "POST", "/programs", {"trace": other.to_jsonl()},
                idempotent=False,
            )
            assert status == 429
            assert tenants.usage("public")["bytes"] == sizes[0]
            # Re-importing the stored program stays free.
            assert client.program_add(RING.to_jsonl())["bytes"] == sizes[0]


class TestTraceRejection:
    """The 422 taxonomy: the trace importer's diagnosis travels to the
    client verbatim, and nothing reaches the evaluator."""

    def reject(self, client, text):
        with pytest.raises(ServiceError) as err:
            client.program_add(text)
        assert err.value.status == 422
        assert err.value.doc["error"] == "invalid trace"
        return err.value.doc["detail"]

    def test_unmatched_send(self, db):
        with serve(db) as (_service, client):
            detail = self.reject(client, "NPROCS 2\n0 MPI_SEND 1 8\n")
        assert "unmatched send" in detail

    def test_unknown_rank(self, db):
        with serve(db) as (_service, client):
            detail = self.reject(client, "NPROCS 2\n0 MPI_SEND 7 8\n7 MPI_RECV 0\n")
        assert "rank" in detail

    def test_deadlock_names_ranks_and_ops(self, db):
        text = (
            "NPROCS 2\n"
            "0 MPI_RECV 1\n1 MPI_RECV 0\n"
            "0 MPI_SEND 1 8\n1 MPI_SEND 0 8\n"
        )
        with serve(db) as (_service, client):
            detail = self.reject(client, text)
        assert "deadlock" in detail
        assert "at op 0" in detail

    def test_rejections_counted(self, db):
        with serve(db) as (service, client):
            self.reject(client, "NPROCS 2\n0 MPI_SEND 1 8\n")
            assert (
                service.metrics.counter("repro_trace_rejections_total") == 1
            )


class TestShardAffinity:
    def test_program_ref_folds_into_routing_key(self):
        other = sample_trace(nprocs=4, hops=3)
        body = lambda ref: {
            "model": "imported",
            "model_params": {"program": ref},
            "nprocs": 4,
        }
        a = routing_key_for(body(RING.fingerprint))
        b = routing_key_for(body(other.fingerprint))
        assert a is not None and b is not None
        assert a != b
        assert a == routing_key_for(body(RING.fingerprint))

    def test_router_pins_each_program_to_one_shard(self):
        """Repeated /predicts for one imported program land on the ring
        owner; different programs spread (stub shards echo their id)."""

        async def scenario(router, shards, _downs):
            ring = HashRing(range(len(shards)))
            refs = [
                sample_trace(nprocs=4, hops=h + 1).fingerprint
                for h in range(4)
            ]
            for ref in refs:
                body = {
                    "model": "imported",
                    "model_params": {"program": ref},
                    "nprocs": 4,
                }
                owner = ring.owner(routing_key_for(body))
                for _ in range(3):
                    status, _h, doc = await _send(
                        "127.0.0.1", router.port, "POST", "/predict", body
                    )
                    assert status == 200
                    assert doc["shard_id"] == owner

        from .test_sharding import _run_router_scenario

        _run_router_scenario(scenario)
