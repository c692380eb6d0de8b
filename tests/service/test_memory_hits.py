"""The memory-tier hit path of ``/predict``.

A request's content key fixes its seed streams, so a cache hit's
response is a fixed byte string.  The service answers a memory-tier hit
before any task is made, from a body rendered once per (key, ``db``
ref) -- the ref being the one request field a record repeats that its
key does not fix (an alias and its fingerprint share a key).  The contract
pinned here: every hit body is byte-identical to rendering the cached
document afresh for that request (``prediction_from_doc`` ->
``prediction_record`` -> ``json.dumps``), and the hit keeps its
counters, spans and trace header.
"""

import asyncio
import copy
import json

import pytest

from repro.obs import Tracer
from repro.pevpm.predict import prediction_from_doc
from repro.service import PredictionService, ServiceServer
from repro.service import server as service_server
from repro.service.records import PredictRequest, prediction_record

from .test_adaptive_service import adaptive_request
from .test_service_e2e import SPEC, db, jacobi_request  # noqa: F401

pytestmark = pytest.mark.service


def rendered(service, body: dict) -> bytes:
    """A cache hit's body for *body*, rendered afresh from the cached
    document as the hit path did before it kept bodies."""
    req = PredictRequest.from_dict(body)
    fingerprint = (
        service.db_fingerprint if req.db is None
        else service.registry.resolve(req.db)
    )
    key = req.key(fingerprint)
    doc = service.lru.get(key).doc
    pred = prediction_from_doc(doc)
    pred.cached = True
    pred.wall_time = float(doc.get("wall_time", 0.0))
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
            "served_from": "cache",
            "db_fingerprint": fingerprint,
            "request_key": key,
        },
    )
    if req.db is not None:
        record["db_ref"] = req.db
    return json.dumps(record).encode()


def run_wire(db, scenario, **kwargs):
    """Run *scenario(service, post)* where ``post(body, headers)`` goes
    through :meth:`ServiceServer.respond`, the server's own dispatch,
    and returns ``(status, payload, extra headers)``."""
    service = PredictionService(db, spec=SPEC, **kwargs)
    server = ServiceServer(service)

    async def post(body, headers=None):
        status, payload, ctype, extra = await server.respond(
            "POST", "/predict", headers or {}, json.dumps(body).encode()
        )
        assert ctype == "application/json"
        return status, payload, extra

    async def main():
        try:
            return await scenario(service, post)
        finally:
            service.close()

    return asyncio.run(main())


def served_from(payload: bytes) -> str:
    return json.loads(payload)["served_from"]


class TestHitBodies:
    def test_echo_variants_of_one_key(self, db):
        """No ``db``, either of two aliases and the fingerprint share a
        key, as does a deadline; each ref gets its own body, equal to a
        fresh rendering, on every hit."""
        base = jacobi_request(runs=16)

        async def scenario(service, post):
            status, payload, _ = await post(base)
            assert (status, served_from(payload)) == (200, "engine")
            service.registry.set_alias("mirror", service.db_fingerprint)
            variants = [
                base,
                dict(base, deadline_s=30.0),
                dict(base, db="mirror"),
                dict(base, db="default"),
                dict(base, db=service.db_fingerprint),
                dict(base, db="mirror", deadline_s=30.0),
            ]
            keys = {
                PredictRequest.from_dict(v).key(service.db_fingerprint)
                for v in variants
            }
            assert len(keys) == 1
            bodies = []
            for variant in variants:
                for _ in range(2):  # rendered, then reused
                    status, payload, _ = await post(variant)
                    assert status == 200
                    assert payload == rendered(service, variant)
                bodies.append(payload)
            return bodies

        bodies = run_wire(db, scenario)
        # Only the deadline pairs share a ref; every body names its own
        # ref, and the times never differ.
        assert bodies[0] == bodies[1] and bodies[2] == bodies[5]
        assert len(set(bodies)) == len(bodies) - 2
        assert len({json.dumps(json.loads(b)["times"]) for b in bodies}) == 1
        assert json.loads(bodies[2])["db_ref"] == "mirror"
        assert json.loads(bodies[3])["db_ref"] == "default"
        assert "db_ref" not in json.loads(bodies[0])

    def test_adaptive_result_and_its_fixed_twin(self, db):
        adaptive = adaptive_request(min_runs=4)

        async def scenario(service, post):
            _, first, _ = await post(adaptive)
            runs = json.loads(first)["runs"]
            assert runs == 4  # stopped at its first total: a twin
            twin = jacobi_request(runs=runs)
            _, again, _ = await post(adaptive)
            _, fixed, _ = await post(twin)
            return first, again, rendered(service, adaptive), fixed, (
                rendered(service, twin)
            )

        first, again, want_again, fixed, want_fixed = run_wire(db, scenario)
        assert served_from(first) == "engine"
        assert again == want_again and served_from(again) == "cache"
        assert "precision" in json.loads(again)
        assert fixed == want_fixed and served_from(fixed) == "cache"
        assert "precision" not in json.loads(fixed)
        assert json.loads(fixed)["times"] == json.loads(first)["times"]

    def test_disk_hit_then_promoted_memory_hit(self, db, tmp_path):
        body = jacobi_request()

        async def warm(service, post):
            return (await post(body))[1]

        engine = run_wire(db, warm, cache_dir=tmp_path)

        async def scenario(service, post):
            _, disk, _ = await post(body)
            assert service.metrics.counter(
                "repro_cache_hits_total", tier="disk"
            ) == 1
            _, memory, _ = await post(body)
            assert service.metrics.counter(
                "repro_cache_hits_total", tier="memory"
            ) == 1
            return disk, memory, rendered(service, body)

        disk, memory, want = run_wire(db, scenario, cache_dir=tmp_path)
        assert served_from(engine) == "engine"
        assert disk == memory == want
        assert json.loads(memory)["times"] == json.loads(engine)["times"]

    def test_deadline_is_neither_keyed_nor_echoed(self, db):
        body = jacobi_request()

        async def scenario(service, post):
            await post(body)
            hits = [
                await post(body),
                await post(dict(body, deadline_s=30.0)),
                # A memory hit is answered before any deadline applies.
                await post(dict(body, deadline_s=0.001)),
            ]
            return hits, rendered(service, body)

        hits, want = run_wire(db, scenario)
        assert [status for status, _, _ in hits] == [200, 200, 200]
        assert [payload for _, payload, _ in hits] == [want] * 3

    def test_bodies_per_entry_are_bounded(self, db):
        """A client varying the ``db`` ref cannot grow one entry."""
        body = jacobi_request(runs=4)

        async def scenario(service, post):
            await post(body)
            key = PredictRequest.from_dict(body).key(service.db_fingerprint)
            for i in range(10):
                service.registry.set_alias(f"ref{i}", service.db_fingerprint)
                variant = dict(body, db=f"ref{i}")
                status, payload, _ = await post(variant)
                assert status == 200
                assert payload == rendered(service, variant)
            return len(service.lru.get(key).bodies)

        assert run_wire(db, scenario) == service_server._BODIES_PER_ENTRY


class TestHitContract:
    def test_mutating_a_returned_document_changes_no_later_response(
        self, db
    ):
        # Not seed 7: jacobi_request() is the adaptive result's fixed
        # twin, whose entry the adaptive evaluation would replace.
        fixed = jacobi_request(seed=3)
        adaptive = adaptive_request()

        def vandalise(doc):
            doc["times"][0] = -1.0
            doc["times"].append(99.0)
            doc["engine"]["vector_batch"] = 0
            doc["model_params"]["iterations"] = -1
            if "precision" in doc:
                doc["precision"]["target"]["rse"] = -1.0
                doc["precision"]["rounds"].clear()
            doc["served_from"] = "vandal"

        async def scenario(service):
            server = ServiceServer(service)
            wants = {}
            for body in (fixed, adaptive):
                _, _, engine = await service.handle_predict(body)
                wants[json.dumps(body)] = (
                    copy.deepcopy(engine), rendered(service, body)
                )
                vandalise(engine)
                _, _, hit = await service.handle_predict(body)
                vandalise(hit)
            out = []
            for body in (fixed, adaptive):
                engine, want = wants[json.dumps(body)]
                _, _, hit = await service.handle_predict(body)
                _, payload, _, _ = await server.respond(
                    "POST", "/predict", {}, json.dumps(body).encode()
                )
                out.append((engine, want, hit, payload))
            return out

        service = PredictionService(db, spec=SPEC)
        try:
            results = asyncio.run(scenario(service))
        finally:
            service.close()
        for engine, want, hit, payload in results:
            assert payload == want
            assert hit == json.loads(want)
            assert hit["times"] == engine["times"]
            assert hit.get("precision") == engine.get("precision")

    def test_counters_match_the_funnel_before_the_hit_path(self, db):
        """One fixed sequence, counted as the parent funnel counts it:
        a memory hit is one ``tier=memory`` hit and no miss."""
        a, b = jacobi_request(seed=1), jacobi_request(seed=2)

        async def scenario(service, post):
            server = ServiceServer(service)
            for body in (a, a, b, dict(a, db="default"), a, {"model": "x"},
                         dict(b, deadline_s=0.001)):
                await post(body)
            await server.respond("GET", "/healthz", {}, b"")
            return service.metrics

        m = run_wire(db, scenario)
        assert m.counter("repro_cache_misses_total") == 2
        assert m.counter("repro_cache_hits_total", tier="memory") == 4
        assert m.total("repro_cache_hits_total") == 4
        assert m.counter("repro_requests_total", endpoint="/predict") == 7
        assert m.counter("repro_requests_total", endpoint="/healthz") == 1
        assert m.counter("repro_responses_total", code="200") == 7
        assert m.counter("repro_responses_total", code="400") == 1
        assert m.counter("repro_bad_requests_total") == 1
        assert m.counter("repro_tenant_requests_total", tenant="public") == 7
        assert m.runs_count("fixed") == 2
        assert m.counter("repro_deadline_exceeded_total") == 0

    def test_traced_hit_keeps_its_spans_and_trace_header(self, db):
        tracer = Tracer()
        body = jacobi_request()

        async def scenario(service, post):
            await post(body, {"x-repro-trace": "warm"})
            return await post(body, {"x-repro-trace": "hit-1"})

        status, payload, extra = run_wire(db, scenario, tracer=tracer)
        assert status == 200 and served_from(payload) == "cache"
        assert extra == {"X-Repro-Trace": "hit-1"}
        spans = {s["name"]: s for s in tracer.get("hit-1")["spans"]}
        assert set(spans) == {"request", "cache"}
        assert spans["cache"]["attrs"]["tier"] == "memory"
        assert spans["request"]["attrs"] == {
            "status": 200, "served_from": "cache",
        }

    def test_record_is_built_once_per_key_and_echo(self, db, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["extra"]["served_from"])
            return prediction_record(*args, **kwargs)

        monkeypatch.setattr(service_server, "prediction_record", counting)
        body = jacobi_request(runs=16)

        async def scenario(service, post):
            await post(body)
            for _ in range(20):
                await post(body)
                await post(dict(body, db="default"))
            return service.metrics

        m = run_wire(db, scenario)
        assert m.counter("repro_cache_hits_total", tier="memory") == 40
        # The engine's response, then one rendering per ref.
        assert calls == ["engine", "cache", "cache"]
