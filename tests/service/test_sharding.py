"""The sharded serving tier: ring, router, supervisor.

Three layers, tested bottom-up:

* :class:`HashRing` -- the consistent-hash properties the tier's
  correctness rests on: stable ownership, removal remaps *only* the
  removed node's keys, and each key's failover owner is exactly
  ``owners(key)[1]``;
* :class:`ShardRouter` -- driven against in-loop stub backends where
  failure injection is deterministic: affinity, transport-failure
  failover (plus ``on_down``), the 503-retry against the failover
  owner (circuit-breaker state is per-process; one shard shedding must
  not bounce the client), and the /metrics and /healthz aggregations;
* :class:`Supervisor` -- the real thing: spawned shard processes over
  a shared cache plane, bit-identity through the router, through every
  individual shard, and to a direct ``predict(...)`` call -- including
  while a shard is SIGKILLed mid-run and after its restart -- and the
  rolling drain.
"""

import asyncio
import json
import threading
import time
from collections import Counter

import pytest

from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import predict, timing_from_db
from repro.service import (
    Backend,
    HashRing,
    PredictRequest,
    ServiceClient,
    ServiceMetrics,
    ShardRouter,
    Supervisor,
    routing_key_for,
)
from repro.service.sharding import ring_hash
from repro.simnet import perseus

pytestmark = pytest.mark.service

SPEC = perseus(16)
ITER = 10  # keep spawned-shard evaluations fast


# -- the ring -----------------------------------------------------------------


def test_ring_hash_is_stable_and_seed_independent():
    # blake2b, not hash(): the value must be identical in every process.
    assert ring_hash("shard-0") == ring_hash("shard-0")
    assert ring_hash("shard-0") != ring_hash("shard-1")
    assert 0 <= ring_hash("x") < 2 ** 64


def test_ring_ownership_is_stable_and_spread():
    ring = HashRing(range(4))
    keys = [f"key-{i}" for i in range(2000)]
    owners = {key: ring.owner(key) for key in keys}
    # Deterministic: a second identical ring agrees on every key.
    again = HashRing(range(4))
    assert all(again.owner(key) == owners[key] for key in keys)
    counts = Counter(owners.values())
    assert set(counts) == {0, 1, 2, 3}
    # Virtual nodes keep the spread within a loose band (no shard owns
    # more than half or less than a twentieth of the keyspace).
    assert max(counts.values()) < 1000
    assert min(counts.values()) > 100


def test_ring_removal_remaps_only_owned_keys():
    ring = HashRing(range(4))
    keys = [f"key-{i}" for i in range(2000)]
    before = {key: ring.owner(key) for key in keys}
    prefs = {key: ring.owners(key) for key in keys}
    ring.remove(2)
    for key in keys:
        if before[key] == 2:
            # A removed node's keys fall to their failover owner...
            assert ring.owner(key) == prefs[key][1]
        else:
            # ...and nobody else's key moves at all.
            assert ring.owner(key) == before[key]
    # Re-adding snaps every key back to its original owner.
    ring.add(2)
    assert all(ring.owner(key) == before[key] for key in keys)


def test_ring_owners_preference_order():
    ring = HashRing(range(4))
    pref = ring.owners("some-key")
    assert sorted(pref) == [0, 1, 2, 3]  # all distinct members, once
    assert ring.owners("some-key", count=2) == pref[:2]
    assert ring.owner("some-key") == pref[0]


def test_ring_edge_cases():
    ring = HashRing()
    assert len(ring) == 0
    assert ring.owners("k") == []
    with pytest.raises(LookupError):
        ring.owner("k")
    ring.add("a")
    ring.add("a")  # idempotent
    assert len(ring) == 1 and "a" in ring
    assert ring.owner("anything") == "a"
    ring.remove("missing")  # idempotent
    ring.remove("a")
    assert len(ring) == 0
    with pytest.raises(ValueError):
        HashRing(replicas=0)


# -- routing keys -------------------------------------------------------------


def _request(**overrides) -> dict:
    request = {
        "model": "jacobi",
        "model_params": {"iterations": ITER},
        "nprocs": 4,
        "runs": 4,
        "seed": 7,
    }
    request.update(overrides)
    return request


def test_routing_key_is_canonical_and_db_free():
    # Defaults filled in: a sparse and an explicit request share a key.
    sparse = PredictRequest.from_dict({"model": "fft", "nprocs": 4})
    explicit = PredictRequest.from_dict(
        {"model": "fft", "nprocs": 4, "runs": 16, "seed": 0, "ppn": 1}
    )
    assert sparse.routing_key() == explicit.routing_key()
    # Unlike the cache key, no db fingerprint is involved -- but the
    # cache key for one db still disambiguates distinct dbs.
    assert sparse.key("db-a") != sparse.key("db-b")
    assert sparse.routing_key() != sparse.key("db-a")
    # Any field that changes the numbers changes the routing key.
    other = PredictRequest.from_dict({"model": "fft", "nprocs": 4, "seed": 1})
    assert other.routing_key() != sparse.routing_key()


def test_routing_key_shards_by_db_ref():
    # Tenant traffic for different registry dbs must shard separately:
    # the ref (not its resolution) enters the routing key, so routing
    # stays stable across alias promotions.
    plain = PredictRequest.from_dict({"model": "fft", "nprocs": 4})
    on_prod = PredictRequest.from_dict(
        {"model": "fft", "nprocs": 4, "db": "prod"}
    )
    on_v2 = PredictRequest.from_dict(
        {"model": "fft", "nprocs": 4, "db": "perseus@v2"}
    )
    keys = {plain.routing_key(), on_prod.routing_key(), on_v2.routing_key()}
    assert len(keys) == 3
    # Same ref -> same key (affinity holds for the tenant's traffic).
    again = PredictRequest.from_dict(
        {"model": "fft", "nprocs": 4, "db": "prod"}
    )
    assert again.routing_key() == on_prod.routing_key()
    # And routing_key_for sees the ref too.
    assert routing_key_for(
        {"model": "fft", "nprocs": 4, "db": "prod"}
    ) == on_prod.routing_key()


def test_routing_key_for_handles_garbage():
    assert routing_key_for({"model": "jacobi", "nprocs": 2}) is not None
    assert routing_key_for({"model": "nope", "nprocs": 2}) is None
    assert routing_key_for("not an object") is None
    assert routing_key_for({}) is None


# -- shard_id metrics labels --------------------------------------------------


def test_constant_labels_stamp_every_series():
    metrics = ServiceMetrics(constant_labels={"shard_id": "3"})
    metrics.inc("repro_requests_total", endpoint="/predict")
    metrics.set_gauge("repro_queue_depth", 2.0)
    metrics.observe_stage("engine", 0.01)
    metrics.observe("/predict", 0.02)
    text = metrics.render_prometheus()
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        assert 'shard_id="3"' in line, line
    # Recording/query API is unaffected by the rendering labels.
    assert metrics.counter("repro_requests_total", endpoint="/predict") == 1.0


def test_no_constant_labels_renders_identically():
    plain, labelled = ServiceMetrics(), ServiceMetrics(constant_labels=None)
    for metrics in (plain, labelled):
        metrics.inc("repro_requests_total", endpoint="/predict")
        metrics.observe_stage("engine", 0.01)
    assert plain.render_prometheus() == labelled.render_prometheus()
    assert "shard_id" not in plain.render_prometheus()


# -- the router, against stub backends ---------------------------------------


class StubShard:
    """An in-loop HTTP backend with scriptable behaviour."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.requests: list[str] = []
        self.shed_next = 0  # answer this many /predicts with 503
        self.server = None

    async def start(self) -> int:
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    async def _handle(self, reader, writer):
        from repro.service.server import (
            read_http_request,
            render_http_response,
        )

        try:
            while True:
                request = await read_http_request(reader)
                if request is None:
                    break
                method, target, _headers, body = request
                self.requests.append(target)
                path = target.split("?", 1)[0]
                if path == "/predict" and self.shed_next > 0:
                    self.shed_next -= 1
                    doc = {"error": "circuit breaker open"}
                    status = 503
                elif path == "/healthz":
                    doc = {"status": "ok", "shard_id": self.shard_id}
                    status = 200
                elif path == "/metrics":
                    writer.write(
                        render_http_response(
                            200,
                            (
                                "# TYPE repro_requests_total counter\n"
                                f'repro_requests_total{{shard_id='
                                f'"{self.shard_id}"}} 1\n'
                            ).encode(),
                            "text/plain; version=0.0.4",
                        )
                    )
                    await writer.drain()
                    continue
                else:
                    doc = {
                        "shard_id": self.shard_id,
                        "echo": json.loads(body) if body else None,
                    }
                    status = 200
                writer.write(
                    render_http_response(
                        status, json.dumps(doc).encode(), "application/json"
                    )
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


async def _send(
    host: str, port: int, method: str, target: str, body: dict | None = None
):
    """One raw HTTP exchange; returns (status, headers, doc)."""
    payload = b"" if body is None else json.dumps(body).encode()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        (
            f"{method} {target} HTTP/1.1\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = await reader.readexactly(int(headers.get("content-length", 0)))
    writer.close()
    if headers.get("content-type", "").startswith("application/json"):
        doc = json.loads(raw) if raw else None
    else:
        doc = raw.decode()
    return status, headers, doc


def _run_router_scenario(scenario, n_shards: int = 3):
    """Start *n_shards* stubs and a router in one loop, run *scenario*."""

    async def _main():
        shards = [StubShard(i) for i in range(n_shards)]
        backends = []
        for shard in shards:
            port = await shard.start()
            backends.append(Backend(shard.shard_id, "127.0.0.1", port))
        downs: list[int] = []
        router = ShardRouter(
            backends, backend_timeout=10.0, on_down=downs.append
        )
        await router.start()
        try:
            return await scenario(router, shards, downs)
        finally:
            await router.stop()
            for shard in shards:
                await shard.stop()

    return asyncio.run(_main())


def test_router_routes_by_key_with_affinity():
    async def scenario(router, shards, downs):
        ring = HashRing(range(len(shards)))
        for seed in range(6):
            body = _request(seed=seed)
            expected = ring.owner(routing_key_for(body))
            for _ in range(2):  # affinity: same key, same shard, twice
                status, headers, doc = await _send(
                    router.host, router.port, "POST", "/predict", body
                )
                assert status == 200
                assert doc["shard_id"] == expected
                assert headers["x-repro-shard"] == str(expected)
        assert not downs

    _run_router_scenario(scenario)


def test_router_unroutable_body_still_served():
    async def scenario(router, shards, downs):
        # Garbage that fails validation routes anywhere; the shard
        # answers (stubs echo instead of 400ing, which is fine here).
        status, _, doc = await _send(
            router.host, router.port, "POST", "/predict", {"model": "nope"}
        )
        assert status == 200 and doc["shard_id"] in (0, 1, 2)

    _run_router_scenario(scenario)


def test_router_fails_over_dead_shard_and_recovers():
    async def scenario(router, shards, downs):
        ring = HashRing(range(len(shards)))
        body = _request(seed=1)
        key = routing_key_for(body)
        owner, failover = ring.owners(key)[:2]
        await shards[owner].stop()  # dead: connections refused
        status, headers, doc = await _send(
            router.host, router.port, "POST", "/predict", body
        )
        assert status == 200
        assert doc["shard_id"] == failover  # the key's failover owner
        assert headers["x-repro-shard"] == str(failover)
        assert downs == [owner]
        assert router.metrics.counter(
            "repro_router_retries_total", reason="transport"
        ) == 1.0
        # Keys owned by live shards are untouched by the failover.
        for seed in range(8):
            other = _request(seed=seed)
            expected = ring.owner(routing_key_for(other))
            if expected == owner:
                continue
            _, _, doc = await _send(
                router.host, router.port, "POST", "/predict", other
            )
            assert doc["shard_id"] == expected
        # Supervisor restarted it: mark_up restores the range.
        port = await shards[owner].start()
        router.backends[owner].port = port
        router.mark_up(owner)
        _, _, doc = await _send(
            router.host, router.port, "POST", "/predict", body
        )
        assert doc["shard_id"] == owner

    _run_router_scenario(scenario)


def test_router_retries_503_on_failover_owner():
    async def scenario(router, shards, downs):
        ring = HashRing(range(len(shards)))
        body = _request(seed=2)
        owner, failover = ring.owners(routing_key_for(body))[:2]
        shards[owner].shed_next = 1  # per-process breaker: one 503
        status, _, doc = await _send(
            router.host, router.port, "POST", "/predict", body
        )
        # The client never sees the 503: the failover owner served it.
        assert status == 200
        assert doc["shard_id"] == failover
        assert router.metrics.counter(
            "repro_router_failovers_total", reason="503"
        ) == 1.0
        assert not downs  # shedding is not death

        # Both the owner and its failover shedding: the 503 surfaces.
        shards[owner].shed_next = 1
        shards[failover].shed_next = 1
        status, _, doc = await _send(
            router.host, router.port, "POST", "/predict", body
        )
        assert status == 503

    _run_router_scenario(scenario)


def test_router_all_shards_down_is_503():
    async def scenario(router, shards, downs):
        for shard in shards:
            await shard.stop()
        status, _, doc = await _send(
            router.host, router.port, "POST", "/predict", _request()
        )
        assert status == 503
        assert doc["error"] == "no shards available"
        assert sorted(downs) == [0, 1, 2]

    _run_router_scenario(scenario)


def test_router_healthz_and_metrics_aggregate():
    async def scenario(router, shards, downs):
        status, _, doc = await _send(
            router.host, router.port, "GET", "/healthz"
        )
        assert status == 200
        assert doc["router"] is True and doc["shards_up"] == 3
        assert doc["shards"]["1"]["shard_id"] == 1

        await shards[2].stop()
        router.mark_down(2)
        status, _, doc = await _send(
            router.host, router.port, "GET", "/healthz"
        )
        assert status == 200  # degraded but serving
        assert doc["shards_up"] == 2
        assert doc["shards"]["2"] == {"status": "down"}

        status, _, text = await _send(
            router.host, router.port, "GET", "/metrics"
        )
        assert status == 200
        # One TYPE header even though both live shards exposed it.
        assert text.count("# TYPE repro_requests_total counter") == 1
        assert 'repro_requests_total{shard_id="0"} 1' in text
        assert 'repro_requests_total{shard_id="1"} 1' in text
        assert 'shard_id="2"' not in text
        # The router's own series carry shard_id="router".
        assert 'repro_router_backends_up{shard_id="router"} 2' in text

    _run_router_scenario(scenario)


def test_router_draining_sheds():
    async def scenario(router, shards, downs):
        router.draining = True
        status, _, doc = await _send(
            router.host, router.port, "POST", "/predict", _request()
        )
        assert status == 503 and "draining" in doc["error"]

    _run_router_scenario(scenario)


def test_router_shard_pin_query():
    async def scenario(router, shards, downs):
        status, _, doc = await _send(
            router.host, router.port, "GET", "/trace?shard=1"
        )
        assert status == 200 and doc["shard_id"] == 1
        status, _, doc = await _send(
            router.host, router.port, "GET", "/trace?shard=9"
        )
        assert status == 503

    _run_router_scenario(scenario)


# -- the real thing: spawned shards ------------------------------------------


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def direct_jacobi(db, request: dict):
    params = {
        "iterations": request["model_params"]["iterations"],
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }
    return predict(
        parse_jacobi(),
        request["nprocs"],
        timing_from_db(db, mode="distribution", nprocs=request["nprocs"]),
        runs=request["runs"],
        seed=request["seed"],
        params=params,
    )


@pytest.mark.slow
def test_sharded_deployment_end_to_end(db, tmp_path):
    """One supervised 2-shard deployment, exercised end to end: the
    reproducibility contract through every path, shard death and
    restart under load, the shared cache plane, and the rolling drain."""
    supervisor = Supervisor(
        db, 2, cache_dir=tmp_path / "cache", tracing=False, drain_grace=5.0
    )
    try:
        host, port = supervisor.start()
        client = ServiceClient(host, port, timeout=60.0)

        # Bit-identity: router == each individual shard == direct call.
        request = _request(seed=3)
        expected = direct_jacobi(db, request).times
        via_router = client.predict(**request)
        assert via_router["times"] == expected
        served_by = None
        for shard in range(2):
            shard_client = ServiceClient(
                *supervisor.shard_address(shard), timeout=60.0
            )
            doc = shard_client.predict(**request)
            assert doc["times"] == expected
            health = shard_client.healthz()
            assert health["shard_id"] == shard
            # Shared cache plane: whichever shard did not own the key
            # still serves it -- from the shared disk tier, not a
            # second evaluation.
            if doc["served_from"] != "engine":
                served_by = shard
            shard_client.close()
        assert served_by is not None

        # Per-shard Prometheus series, aggregated at the router.
        text = client.metrics_text()
        assert 'shard_id="0"' in text and 'shard_id="1"' in text
        assert text.count("# TYPE repro_requests_total counter") == 1

        # Kill one shard mid-run: the keep-driving thread must see
        # nothing but 200s (its keys fail over), and every response
        # must stay bit-identical.
        failures: list = []
        stop = threading.Event()

        def keep_driving():
            drive = ServiceClient(host, port, timeout=60.0)
            expected_times = {}
            sequence = 0
            while not stop.is_set():
                # Seeds 0..7 deterministically cover both shards' hash
                # ranges (4 and 6 are owned by shard 0, the one killed).
                req = _request(seed=sequence % 8)
                try:
                    doc = drive.predict(**req)
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    break
                known = expected_times.setdefault(req["seed"], doc["times"])
                if doc["times"] != known:
                    failures.append((req["seed"], doc["times"], known))
                    break
                sequence += 1
            drive.close()

        driver = threading.Thread(target=keep_driving, daemon=True)
        driver.start()
        time.sleep(0.5)
        supervisor.kill_shard(0)
        # Drive through the death + failover + restart window.
        deadline = time.time() + 90.0
        while supervisor.restarts < 1 and time.time() < deadline:
            time.sleep(0.2)
        assert supervisor.restarts == 1
        while time.time() < deadline:
            if client.healthz().get("shards_up") == 2:
                break
            time.sleep(0.3)
        assert client.healthz()["shards_up"] == 2
        time.sleep(0.5)
        stop.set()
        driver.join(timeout=30.0)
        assert not failures, failures

        # The restarted shard serves its range bit-identically again.
        shard_client = ServiceClient(
            *supervisor.shard_address(0), timeout=60.0
        )
        assert shard_client.predict(**request)["times"] == expected
        shard_client.close()
        client.close()
    finally:
        supervisor.rolling_drain()
    assert not supervisor.procs  # every shard exited


@pytest.mark.slow
def test_supervisor_reuseport_topology(db):
    """SO_REUSEPORT mode: all shards share the public port, the kernel
    spreads connections, and served numbers keep the contract."""
    import socket as _socket

    if not hasattr(_socket, "SO_REUSEPORT"):
        pytest.skip("SO_REUSEPORT not available")
    supervisor = Supervisor(db, 2, reuse_port=True, tracing=False,
                            drain_grace=5.0)
    try:
        host, port = supervisor.start()
        assert supervisor.shard_ports == [port, port]
        assert supervisor.router_thread is None
        request = _request(seed=5)
        expected = direct_jacobi(db, request).times
        client = ServiceClient(host, port, timeout=60.0)
        for _ in range(3):
            assert client.predict(**request)["times"] == expected
        client.close()
    finally:
        supervisor.stop()
