"""The front router: one public socket over N shard server processes.

A :class:`ShardRouter` is how the service scales out: it accepts
client connections, parses each request with the same HTTP layer the
shards use (:mod:`.http`), and forwards it to the shard that *owns*
the request -- consistent-hash routing (:mod:`.sharding`) on the content-addressed
routing key (:meth:`~.records.PredictRequest.routing_key`).  A key
always lands on the same shard, so the funnel's throughput tiers keep
working cluster-wide: each shard's LRU holds a disjoint key range,
and singleflight collapses identical in-flight requests in one process.

Fault handling, in preference-ring order:

* **dead shard** -- a transport failure (refused/reset/truncated) marks
  the backend down, fires ``on_down`` (the supervisor restarts it) and
  retries the request against the key's next ring owner.  Only the dead
  shard's hash range moves; every other key keeps its owner, and
  :meth:`mark_up` snaps the range back after restart.
* **shedding shard** -- a 503 (open circuit breaker or draining) is
  *per-process* state, so the router retries once against the key's
  failover owner instead of bouncing the client; 429 admission shedding
  is returned verbatim (overload must stay visible to closed-loop
  clients).

Every ``/predict`` response gains an ``X-Repro-Shard`` header naming
the serving shard.  ``/metrics`` aggregates all live shards'
expositions (each series already carries its ``shard_id`` label) plus
the router's own; ``/healthz`` reports per-shard health.  Requests are
idempotent by the reproducibility contract, so cross-shard retries can
never change what a client receives -- only which process computes it.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl

from .http import HTTPServer, read_http_response, render_http_message
from .metrics import ServiceMetrics
from .records import routing_key_for
from .sharding import HashRing

__all__ = ["Backend", "ShardRouter"]

#: shard statuses a router retries against the failover owner: breaker
#: open and draining are per-process conditions another shard may well
#: not share.  429 is deliberately absent -- admission shedding is load,
#: and load must surface to the client.
FAILOVER_STATUSES = (503,)

#: headers copied from the client request onto the forwarded request
_FORWARD_HEADERS = (
    "content-type", "x-repro-trace", "x-repro-attempt", "x-repro-tenant",
)


class Backend:
    """One shard server process as the router sees it."""

    def __init__(self, shard_id: int, host: str, port: int):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        #: ``up`` (routable) | ``down`` (dead, range failed over) |
        #: ``draining`` (alive but excluded from new work)
        self.state = "up"
        #: idle keep-alive connections to this shard
        self._pool: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def close_pool(self) -> None:
        for _reader, writer in self._pool:
            writer.close()
        self._pool.clear()


class ShardRouter(HTTPServer):
    """Asyncio front router with consistent-hash request routing.

    Membership changes from other threads (the supervisor's) must run
    on the router's loop: see :meth:`.http.LoopThread.call`.
    """

    def __init__(
        self,
        backends: list[Backend],
        host: str = "127.0.0.1",
        port: int = 0,
        backend_timeout: float = 60.0,
        on_down=None,
    ):
        if not backends:
            raise ValueError("router needs at least one backend")
        super().__init__(host, port)
        self.backends: dict[int, Backend] = {
            b.shard_id: b for b in backends
        }
        #: ring over *all* configured shards; down/draining members are
        #: skipped at lookup so a recovered shard reclaims its range
        self.ring = HashRing(self.backends)
        self.backend_timeout = backend_timeout
        #: callback(shard_id) fired (loop thread) when a backend dies
        self.on_down = on_down
        self.metrics = ServiceMetrics(constant_labels={"shard_id": "router"})
        self.metrics.register_gauge(
            "repro_router_backends_up", lambda: len(self.routable())
        )
        self._rr = 0  # round-robin cursor for keyless requests

    # -- membership ------------------------------------------------------------
    def routable(self) -> list[Backend]:
        """Backends accepting new requests, in shard-id order."""
        return [
            b for _, b in sorted(self.backends.items()) if b.state == "up"
        ]

    def mark_down(self, shard_id: int) -> None:
        backend = self.backends[shard_id]
        if backend.state != "down":
            backend.state = "down"
            self.metrics.inc("repro_router_backend_down_total")
        backend.close_pool()

    def mark_draining(self, shard_id: int) -> None:
        backend = self.backends[shard_id]
        if backend.state == "up":
            backend.state = "draining"

    def mark_up(self, shard_id: int) -> None:
        self.backends[shard_id].state = "up"

    def _owners_for(self, key: str | None) -> list[Backend]:
        """Preference-ordered live backends for one request.

        With a key: the ring walk, dead/draining members skipped -- the
        first entry is the owner, the second the failover owner.
        Without one (unparseable request, plain GETs): round-robin, so
        validation errors and health probes spread evenly.
        """
        live = self.routable()
        if key is None:
            self._rr += 1
            n = len(live)
            return live[self._rr % n:] + live[: self._rr % n] if n else []
        order = self.ring.owners(key)
        by_id = {b.shard_id: b for b in live}
        return [by_id[sid] for sid in order if sid in by_id]

    # -- backend exchange ------------------------------------------------------
    async def _exchange(
        self, backend: Backend, raw_request: bytes
    ) -> tuple[int, dict, bytes]:
        """One request/response round trip on a pooled connection.

        A pooled connection may simply have gone stale (shard restarted,
        idle timeout): it gets one clean retry on a fresh connection
        before the failure is the backend's.
        """
        for fresh in (False, True) if backend._pool else (True,):
            if fresh:
                reader, writer = await asyncio.open_connection(*backend.address)
            else:
                reader, writer = backend._pool.pop()
            try:
                writer.write(raw_request)
                await writer.drain()
                status, headers, payload = await read_http_response(reader)
                break
            except (OSError, asyncio.IncompleteReadError, ConnectionError):
                writer.close()
                if fresh:
                    raise
        if headers.get("connection", "keep-alive") == "close":
            writer.close()
        else:
            backend._pool.append((reader, writer))
        return status, headers, payload

    @staticmethod
    def _serialise(
        method: str, target: str, headers: dict, body: bytes
    ) -> bytes:
        fields = [("Connection", "keep-alive")]
        fields += [
            (name, headers[name]) for name in _FORWARD_HEADERS
            if name in headers
        ]
        fields.append(("Content-Length", len(body)))
        return render_http_message(f"{method} {target} HTTP/1.1", fields, body)

    async def _forward(
        self,
        backends: list[Backend],
        method: str,
        target: str,
        headers: dict,
        body: bytes,
    ) -> tuple[int, dict, bytes, int | None]:
        """Send one request down *backends*, a preference order:
        ``(status, headers, payload, shard_id)``.

        Transport failures mark the backend down (firing ``on_down``)
        and move on; a :data:`FAILOVER_STATUSES` response is retried
        once against the next backend.  Exhausting the list returns 503.
        """
        raw = self._serialise(method, target, headers, body)
        shed: tuple[int, dict, bytes, int] | None = None
        for backend in backends:
            try:
                async with asyncio.timeout(self.backend_timeout):
                    status, resp_headers, payload = await self._exchange(
                        backend, raw
                    )
            except (OSError, asyncio.IncompleteReadError, ConnectionError,
                    TimeoutError):
                self.metrics.inc(
                    "repro_router_retries_total", reason="transport"
                )
                self.mark_down(backend.shard_id)
                if self.on_down is not None:
                    self.on_down(backend.shard_id)
                continue
            self.metrics.inc(
                "repro_router_requests_total", shard=str(backend.shard_id)
            )
            if status in FAILOVER_STATUSES and shed is None:
                # The owner is shedding for a per-process reason; its
                # failover owner gets one chance before the client does.
                shed = (status, resp_headers, payload, backend.shard_id)
                self.metrics.inc(
                    "repro_router_failovers_total", reason=str(status)
                )
                continue
            return status, resp_headers, payload, backend.shard_id
        if shed is not None:
            return shed
        payload = json.dumps({"error": "no shards available"}).encode()
        return 503, {"retry-after": "1"}, payload, None

    # -- endpoints -------------------------------------------------------------
    async def _healthz(self) -> tuple[int, dict, bytes]:
        shards: dict[str, object] = {}
        up = 0
        for shard_id, backend in sorted(self.backends.items()):
            if backend.state == "down":
                shards[str(shard_id)] = {"status": "down"}
                continue
            try:
                async with asyncio.timeout(5.0):
                    status, _, payload = await self._exchange(
                        backend,
                        self._serialise("GET", "/healthz", {}, b""),
                    )
                doc = json.loads(payload) if status == 200 else {
                    "status": f"http {status}"
                }
            except (OSError, ConnectionError, ValueError, TimeoutError,
                    asyncio.IncompleteReadError):
                doc = {"status": "unreachable"}
            if doc.get("status") == "ok":
                up += 1
            doc["state"] = backend.state
            shards[str(shard_id)] = doc
        doc = {
            "status": "ok" if up else "degraded",
            "router": True,
            "draining": self.draining,
            "shards_up": up,
            "shards": shards,
        }
        return (200 if up else 503), {}, json.dumps(doc).encode()

    async def _metrics_text(self) -> bytes:
        """All live shards' expositions plus the router's own, with
        duplicate ``# TYPE`` headers dropped (each series is already
        unique thanks to the per-shard ``shard_id`` labels)."""
        chunks = [self.metrics.render_prometheus()]
        for backend in self.routable():
            try:
                async with asyncio.timeout(5.0):
                    status, _, payload = await self._exchange(
                        backend,
                        self._serialise("GET", "/metrics", {}, b""),
                    )
                if status == 200:
                    chunks.append(payload.decode())
            except (OSError, ConnectionError, TimeoutError,
                    asyncio.IncompleteReadError):
                continue
        seen_types: set[str] = set()
        lines: list[str] = []
        for chunk in chunks:
            for line in chunk.splitlines():
                if line.startswith("# TYPE"):
                    if line in seen_types:
                        continue
                    seen_types.add(line)
                lines.append(line)
        return ("\n".join(lines) + "\n").encode()

    async def _route(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple[int, dict, bytes, int | None]:
        path, _, query = target.partition("?")
        if path == "/healthz" and method == "GET":
            status, extra, payload = await self._healthz()
            return status, extra, payload, None
        if path == "/metrics" and method == "GET":
            return 200, {"content-type": "text/plain; version=0.0.4"}, (
                await self._metrics_text()
            ), None
        if path == "/predict":
            if self.draining:
                self.metrics.inc("repro_drain_rejected_total")
                payload = json.dumps({"error": "router draining"}).encode()
                return 503, {"retry-after": "1", "connection": "close"}, (
                    payload
                ), None
            key = None
            if method == "POST":
                try:
                    key = routing_key_for(json.loads(body) if body else {})
                except ValueError:
                    key = None  # the shard answers 400
            return await self._forward(
                self._owners_for(key), method, target, headers, body
            )
        # Reads against shard state (/distributions, /trace, /chaos...)
        # go to one live shard -- ?shard=N pins a specific one.
        pinned = dict(parse_qsl(query, keep_blank_values=True)).get("shard")
        if pinned is None:
            backends = self._owners_for(None)
        else:
            try:
                backend = self.backends.get(int(pinned))
            except ValueError:
                backend = None
            if backend is None or backend.state == "down":
                payload = json.dumps({"error": "shard unavailable"}).encode()
                return 503, {"retry-after": "1"}, payload, None
            backends = [backend]
        return await self._forward(backends, method, target, headers, body)

    async def respond(self, method, target, headers, body):
        """Route one request; the serving shard's ``Retry-After`` and
        ``X-Repro-Trace`` pass through and ``X-Repro-Shard`` names it."""
        try:
            status, resp_headers, payload, shard_id = await self._route(
                method, target, headers, body
            )
        except Exception as exc:  # pragma: no cover - last resort
            self.metrics.inc("repro_router_errors_total")
            status, resp_headers, shard_id = 502, {}, None
            payload = json.dumps({"error": f"router error: {exc}"}).encode()
        extra = {
            name: value
            for name, value in resp_headers.items()
            if name in ("retry-after", "x-repro-trace")
        }
        if shard_id is not None:
            extra["X-Repro-Shard"] = str(shard_id)
        content_type = resp_headers.get("content-type", "application/json")
        return status, payload, content_type, extra

    async def stop(self) -> None:
        await super().stop()
        for backend in self.backends.values():
            backend.close_pool()
