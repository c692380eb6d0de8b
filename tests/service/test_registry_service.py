"""End-to-end tests for the distribution registry behind the API.

The tentpole contract (ISSUE 8): the service reads through a
content-addressed registry of versioned :class:`DistributionDB`
artifacts -- uploads register under their fingerprint, aliases promote
hot with zero restart, tenant traffic for different databases never
mixes results across fingerprints, and every served response stays
bit-identical to the direct ``predict(...)`` call against the same
database object.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import predict, timing_from_db
from repro.registry import RegistryStore, TenantManager, TenantQuota
from repro.service import (
    PredictionService,
    ServiceClient,
    ServiceThread,
    Supervisor,
)
from repro.service.faults import FaultInjector
from repro.simnet import perseus

pytestmark = pytest.mark.service

SPEC = perseus(16)
ITER = 20  # keep served jacobi evaluations fast


def _bench_db(seed: int):
    bench = MPIBench(SPEC, seed=seed, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


@pytest.fixture(scope="module")
def db():
    """The startup database (the service's injected entry zero)."""
    return _bench_db(3)


@pytest.fixture(scope="module")
def db_b():
    """A second database on the same cluster: same spec, different
    measurement seed, so its distributions -- and its fingerprint --
    genuinely differ while jacobi stays servable."""
    return _bench_db(11)


@pytest.fixture(scope="module")
def db_c():
    return _bench_db(12)


@contextmanager
def serve(db, **kwargs):
    service = PredictionService(db, spec=SPEC, **kwargs)
    with ServiceThread(service) as thread:
        host, port = thread.address
        client = ServiceClient(host, port, timeout=120.0)
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
        vector_runs=request.get("vector_runs", True),
    )


def doc_of(db) -> dict:
    return db.to_doc(include_samples=True)


class TestMultiTenantFlow:
    def test_two_tenants_upload_and_predict_bit_identically(
        self, db, db_b, db_c
    ):
        """The acceptance flow: two tenants upload two distinct
        databases; ``POST /predict`` with a ``db`` ref serves each
        tenant numbers bit-identical to ``predict()`` against their
        own database -- and the ref-less path still serves the startup
        database untouched."""
        request = jacobi_request()
        with serve(db) as (_service, client):
            alice = ServiceClient(*client_addr(client), tenant="alice",
                                  timeout=120.0)
            bob = ServiceClient(*client_addr(client), tenant="bob",
                                timeout=120.0)
            try:
                meta_b = alice.registry_add(
                    results=doc_of(db_b), alias="alice@v1"
                )
                meta_c = bob.registry_add(results=doc_of(db_c), alias="bob@v1")
                assert meta_b["fingerprint"] == db_b.fingerprint()
                assert meta_b["tenant"] == "alice"
                assert meta_c["fingerprint"] == db_c.fingerprint()

                for tenant_client, ref, served_db in (
                    (alice, "alice@v1", db_b),
                    (bob, "bob@v1", db_c),
                ):
                    record = tenant_client.predict(**request, db=ref)
                    assert record["times"] == direct_jacobi(
                        served_db, request
                    ).times
                    assert record["db_fingerprint"] == served_db.fingerprint()
                    assert record["db_ref"] == ref

                # Ref-less requests keep the original single-db contract.
                record = client.predict(**request)
                assert record["times"] == direct_jacobi(db, request).times
                assert record["db_fingerprint"] == db.fingerprint()
                assert "db_ref" not in record

                # The fleet listing shows all three databases.
                registry = client.registry_list()
                fingerprints = {e["fingerprint"] for e in registry["dbs"]}
                assert fingerprints == {
                    db.fingerprint(), db_b.fingerprint(), db_c.fingerprint()
                }
                assert registry["aliases"]["alice@v1"] == db_b.fingerprint()
                assert registry["aliases"]["default"] == db.fingerprint()
            finally:
                alice.close()
                bob.close()

    def test_unknown_and_malformed_refs(self, db):
        with serve(db) as (_service, client):
            status, _, doc = client.predict_raw(
                jacobi_request(db="no-such-db")
            )
            assert status == 404
            assert "no-such-db" in doc["error"]
            status, _, doc = client.predict_raw(
                jacobi_request(db="bad ref!")
            )
            assert status == 400

    def test_cache_keys_disambiguate_databases(self, db, db_b):
        """Identical request bodies against different dbs must occupy
        different cache entries (the request key hashes the resolved
        fingerprint)."""
        request = jacobi_request()
        with serve(db) as (_service, client):
            client.registry_add(results=doc_of(db_b), alias="other")
            first = client.predict(**request)
            second = client.predict(**request, db="other")
            assert first["request_key"] != second["request_key"]
            assert first["times"] != second["times"]
            # Both are now cache hits under their own keys, still
            # bit-identical to their own database's direct call.
            assert client.predict(**request)["times"] == first["times"]
            repeat = client.predict(**request, db="other")
            assert repeat["times"] == second["times"]
            assert repeat["served_from"] == "cache"


def client_addr(client: ServiceClient) -> tuple[str, int]:
    return client.host, client.port


class TestHotSwap:
    def test_alias_promotion_swaps_with_zero_restart(self, db, db_b, db_c):
        request = jacobi_request()
        expected_b = direct_jacobi(db_b, request).times
        expected_c = direct_jacobi(db_c, request).times
        with serve(db) as (_service, client):
            client.registry_add(results=doc_of(db_b))
            client.registry_add(results=doc_of(db_c))
            promoted = client.registry_promote(db_b.fingerprint(), "prod")
            assert promoted["fingerprint"] == db_b.fingerprint()
            assert promoted["previous"] is None
            assert client.predict(**request, db="prod")["times"] == expected_b

            # Hot-swap: repoint the alias -- no restart, next resolution
            # serves the new database.
            promoted = client.registry_promote(db_c.fingerprint(), "prod")
            assert promoted["previous"] == db_b.fingerprint()
            swapped = client.predict(**request, db="prod")
            assert swapped["times"] == expected_c
            assert swapped["db_fingerprint"] == db_c.fingerprint()

            # Requests pinned to the old fingerprint keep serving the
            # old results, bit-identically.
            pinned = client.predict(**request, db=db_b.fingerprint())
            assert pinned["times"] == expected_b
            assert pinned["db_fingerprint"] == db_b.fingerprint()

    def test_promotion_mid_load_never_mixes_fingerprints(self, db, db_b,
                                                         db_c):
        """ISSUE satellite: drive predictions at an alias while it is
        promoted back and forth.  Every response must carry times
        bit-identical to the database its echoed fingerprint names --
        old or new is fine mid-swap, a mix is not."""
        with serve(db) as (_service, client):
            client.registry_add(results=doc_of(db_b))
            client.registry_add(results=doc_of(db_c))
            client.registry_promote(db_b.fingerprint(), "prod")
            expected = {}
            for seed in range(4):
                request = jacobi_request(seed=seed)
                expected[(db_b.fingerprint(), seed)] = direct_jacobi(
                    db_b, request
                ).times
                expected[(db_c.fingerprint(), seed)] = direct_jacobi(
                    db_c, request
                ).times

            mixes = []
            stop = threading.Event()

            def drive():
                worker = ServiceClient(*client_addr(client), timeout=120.0)
                seed = 0
                while not stop.is_set():
                    record = worker.predict(
                        **jacobi_request(seed=seed % 4), db="prod"
                    )
                    want = expected[(record["db_fingerprint"], seed % 4)]
                    if record["times"] != want:  # pragma: no cover
                        mixes.append(record)
                        break
                    seed += 1
                worker.close()

            threads = [threading.Thread(target=drive) for _ in range(3)]
            for t in threads:
                t.start()
            targets = (db_b.fingerprint(), db_c.fingerprint())
            for i in range(10):
                client.registry_promote(targets[i % 2], "prod")
            stop.set()
            for t in threads:
                t.join(timeout=60.0)
            assert mixes == []


class TestTenantLimits:
    def test_quota_exhaustion_returns_429_with_retry_after(self, db, db_b,
                                                           db_c):
        registry = RegistryStore()
        tenants = TenantManager(
            registry, TenantQuota(max_dbs=1, retry_after=3.0)
        )
        with serve(db, registry=registry, tenants=tenants) as (_s, client):
            alice = ServiceClient(*client_addr(client), tenant="alice",
                                  timeout=120.0)
            try:
                alice.registry_add(results=doc_of(db_b))
                status, headers, doc = alice._request(
                    "POST", "/distributions", {"results": doc_of(db_c)},
                    idempotent=False,
                )
                assert status == 429
                retry_after = {
                    k.lower(): v for k, v in headers.items()
                }["retry-after"]
                assert float(retry_after) == pytest.approx(3.0)
                assert "limit 1" in doc["error"]
                # Re-uploading already-stored content stays free: the
                # content-addressed no-op skips the quota entirely.
                again = alice.registry_add(results=doc_of(db_b))
                assert again["fingerprint"] == db_b.fingerprint()
                text = client.metrics_text()
                assert "repro_registry_quota_rejections_total 1" in text
            finally:
                alice.close()

    def test_tenant_rate_limit_returns_429_with_retry_after(self, db):
        registry = RegistryStore()
        tenants = TenantManager(
            registry, TenantQuota(rate=0.001, burst=1)
        )
        with serve(db, registry=registry, tenants=tenants) as (_s, client):
            alice = ServiceClient(*client_addr(client), tenant="alice",
                                  timeout=120.0)
            try:
                # Burst of one: the first engine-bound request passes...
                first = alice.predict(**jacobi_request(seed=0))
                assert first["served_from"] == "engine"
                # ...the next distinct one is throttled before any
                # engine work, with the token bucket's own hint.
                status, headers, doc = alice.predict_raw(
                    jacobi_request(seed=1)
                )
                assert status == 429
                retry_after = {
                    k.lower(): v for k, v in headers.items()
                }["retry-after"]
                assert float(retry_after) > 100.0  # ~1000 s at 0.001/s
                assert "alice" in doc["error"]
                # Cache hits bypass admission: replaying the already
                # served request costs no token and still succeeds.
                assert alice.predict(**jacobi_request(seed=0))[
                    "served_from"
                ] == "cache"
                # Other tenants have their own bucket.
                assert client.predict(**jacobi_request(seed=2))[
                    "times"
                ]
                text = client.metrics_text()
                assert 'repro_tenant_throttled_total{tenant="alice"} 1' in text
            finally:
                alice.close()


class TestOwnershipAndHealth:
    def test_delete_enforces_ownership(self, db, db_b):
        with serve(db) as (_service, client):
            alice = ServiceClient(*client_addr(client), tenant="alice",
                                  timeout=120.0)
            bob = ServiceClient(*client_addr(client), tenant="bob",
                                timeout=120.0)
            try:
                alice.registry_add(results=doc_of(db_b), alias="mine")
                status, _, doc = bob._request(
                    "DELETE", f"/distributions/{db_b.fingerprint()}",
                    idempotent=False,
                )
                assert status == 403
                assert "alice" in doc["error"]
                deleted = alice.registry_delete("mine")
                assert deleted["deleted"] == db_b.fingerprint()
                status, _, _ = client.predict_raw(
                    jacobi_request(db=db_b.fingerprint())
                )
                assert status == 404
            finally:
                alice.close()
                bob.close()

    def test_healthz_and_metrics_report_registry_state(self, db, db_b):
        with serve(db) as (_service, client):
            health = client.healthz()
            assert health["registry"]["dbs"] == 1
            assert health["registry"]["aliases"] == 1  # "default"
            client.registry_add(results=doc_of(db_b))
            health = client.healthz()
            assert health["registry"]["dbs"] == 2
            assert health["registry"]["bytes"] > 0
            text = client.metrics_text()
            assert "repro_registry_dbs 2" in text
            assert "repro_registry_bytes" in text
            assert 'repro_registry_uploads_total{tenant="public"} 1' in text
            assert 'repro_tenant_requests_total' not in text  # no predicts yet
            client.predict(**jacobi_request())
            assert 'repro_tenant_requests_total{tenant="public"} 1' in (
                client.metrics_text()
            )

    def test_registry_get_and_legacy_distributions(self, db, db_b):
        with serve(db) as (_service, client):
            client.registry_add(results=doc_of(db_b), alias="b@v1")
            doc = client.registry_get("b@v1")
            assert doc["fingerprint"] == db_b.fingerprint()
            assert doc["aliases"] == ["b@v1"]
            described = client.registry_get("b@v1", size=1024)
            assert described["distribution"]["requested_size"] == 1024
            # The legacy describe endpoint still serves the startup db.
            legacy = client.distributions(size=1024)
            assert legacy["requested_size"] == 1024
            listing = client.distributions()
            assert listing["db_fingerprint"] == db.fingerprint()
            assert listing["cluster"] == db.cluster


class TestChaosQuarantine:
    def test_corrupt_cas_entry_quarantined_and_reuploadable(
        self, db, db_b, tmp_path
    ):
        """ISSUE satellite: the chaos ``corrupt_cache`` fault also
        targets registry CAS entries; a poisoned database is
        quarantined to ``*.corrupt``, reads turn into plain 404 misses,
        and re-uploading the same content restores service."""
        injector = FaultInjector(seed=1)
        registry = RegistryStore(tmp_path / "registry", lru_size=0)
        with serve(
            db, registry=registry, fault_injector=injector
        ) as (service, client):
            assert injector.stores["registry"] is registry.cas
            client.registry_add(results=doc_of(db_b))
            poisoned = injector.corrupt_now()
            assert poisoned is not None
            assert poisoned.parent == registry.root / "cas"
            fpr = poisoned.stem[len("db-"):]
            victim = db if fpr == db.fingerprint() else db_b

            # Reading through the registry quarantines the entry...
            status, _, doc = client._request(
                "GET", f"/distributions/{fpr}?size=1024"
            )
            assert status == 404
            assert "quarantined" in doc["error"]
            assert not poisoned.exists()
            assert poisoned.with_suffix(".corrupt").exists()
            assert registry.corruptions == 1
            # ...later reads are plain misses...
            status, _, _ = client._request("GET", f"/distributions/{fpr}")
            assert status == 404
            # ...and re-uploading the same content repairs it.
            meta = client.registry_add(results=doc_of(victim))
            assert meta["fingerprint"] == fpr
            doc = client.registry_get(fpr, size=1024)
            assert doc["distribution"]["requested_size"] == 1024
            assert client.healthz()["registry"]["corruptions"] == 1


class TestCASRaceOverHTTP:
    def test_concurrent_same_content_uploads_converge(self, db, db_b):
        """ISSUE satellite: N clients racing identical uploads all
        succeed, one CAS entry results, and the index is never torn."""
        with serve(db) as (_service, client):
            doc = doc_of(db_b)
            results: list = []

            def upload(i):
                worker = ServiceClient(*client_addr(client),
                                       tenant=f"t{i}", timeout=120.0)
                try:
                    results.append(
                        worker.registry_add(results=doc, alias="race")
                    )
                except Exception as exc:  # pragma: no cover
                    results.append(exc)
                finally:
                    worker.close()

            threads = [
                threading.Thread(target=upload, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert len(results) == 6
            fingerprints = {
                r["fingerprint"] for r in results if isinstance(r, dict)
            }
            assert fingerprints == {db_b.fingerprint()}
            registry = client.registry_list()
            assert len(registry["dbs"]) == 2  # startup + the one upload
            assert registry["aliases"]["race"] == db_b.fingerprint()
            # The stored entry still serves, bit-identically.
            request = jacobi_request()
            assert client.predict(**request, db="race")[
                "times"
            ] == direct_jacobi(db_b, request).times


@pytest.mark.slow
def test_sharded_registry_plane_end_to_end(db, db_b, tmp_path):
    """A supervised 2-shard deployment over one shared registry plane:
    an upload through the router lands once, is visible on every shard,
    serves bit-identically through the router and through each shard
    directly, shards by ref, and hot-swaps with zero restart."""
    supervisor = Supervisor(
        db, 2, cache_dir=tmp_path / "cache",
        registry_dir=tmp_path / "registry", tracing=False, drain_grace=5.0,
    )
    try:
        host, port = supervisor.start()
        client = ServiceClient(host, port, timeout=120.0)
        request = jacobi_request(seed=5)
        expected_startup = direct_jacobi(db, request).times
        expected_b = direct_jacobi(db_b, request).times

        meta = client.registry_add(results=doc_of(db_b), alias="prod")
        assert meta["fingerprint"] == db_b.fingerprint()

        # Visible on every shard (the shared plane, not a broadcast).
        for shard in range(2):
            shard_client = ServiceClient(
                *supervisor.shard_address(shard), timeout=120.0
            )
            doc = shard_client.registry_get("prod")
            assert doc["fingerprint"] == db_b.fingerprint()
            record = shard_client.predict(**request, db="prod")
            assert record["times"] == expected_b
            assert record["db_fingerprint"] == db_b.fingerprint()
            shard_client.close()

        # Through the router: ref-less and ref-ful, both bit-identical.
        assert client.predict(**request)["times"] == expected_startup
        routed = client.predict(**request, db="prod")
        assert routed["times"] == expected_b

        # Hot-swap on the shared plane: promote "prod" back to the
        # startup database; every shard resolves the new target on its
        # next request, no restart anywhere.
        promoted = client.registry_promote(db.fingerprint(), "prod")
        assert promoted["previous"] == db_b.fingerprint()
        swapped = client.predict(**request, db="prod")
        assert swapped["times"] == expected_startup
        assert swapped["db_fingerprint"] == db.fingerprint()
        # The old fingerprint stays directly addressable.
        assert client.predict(
            **request, db=db_b.fingerprint()
        )["times"] == expected_b

        # Aggregated metrics carry the registry gauges from both shards.
        text = client.metrics_text()
        assert "repro_registry_dbs" in text
        client.close()
    finally:
        supervisor.stop()
