"""Blocking service client and a closed-loop load generator.

:class:`ServiceClient` is a thin wrapper around the service's JSON
endpoints -- what ``repro loadgen``, the end-to-end tests and the
service benchmark drive.  It speaks the service's own HTTP/1.1
(:mod:`.http`, the codec the server and the router use) over one
keep-alive socket, writing each request with one ``sendall``.  It is
*resilient by configuration*: a :class:`RetryPolicy` adds capped,
jittered exponential backoff for idempotent requests -- every
``/predict`` is idempotent by the reproducibility contract
(content-addressed, deterministic) -- that honours the server's
``Retry-After`` hint on 429/503 and retries 504s and transport resets.
Retries are counted in a :class:`~.metrics.ServiceMetrics` instance
(``repro_client_retries_total{reason=...}``) so a chaos run can report
exactly how much client-side masking happened.

:class:`LoadGenerator` implements the classic closed-loop model: *C*
client threads, each with its own persistent connection, firing the next
request the moment the previous response arrives.  Offered load thus
adapts to service capacity (no coordinated-omission bookkeeping needed)
and throughput at concurrency *C* directly measures the serving stack's
batching/dedup/cache gains.  Latencies are summarised through
:class:`repro.mpibench.histogram.Histogram` -- the same machinery used
for communication-time distributions.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import urlencode

from ..mpibench.histogram import Histogram
from .http import read_http_response_blocking, render_http_message
from .metrics import ServiceMetrics

__all__ = [
    "LoadGenerator",
    "LoadResult",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
]


@dataclass
class RetryPolicy:
    """Capped jittered exponential backoff for idempotent requests.

    The delay before attempt *k* (0-based) is ``base * 2**k``, capped at
    ``cap``, then scaled down by up to ``jitter`` (a fraction in [0, 1])
    drawn from a seeded generator -- deterministic for tests, decorrelated
    between clients in production (seed ``None``).  A server-supplied
    ``Retry-After`` overrides the computed delay (still capped) but keeps
    the jitter as an *additive* spread on top: every client shed by the
    same overloaded server gets the same hint, and sleeping it exactly
    would wake the whole herd at once against a just-recovered breaker.
    """

    retries: int = 3  #: retry attempts after the first try
    base: float = 0.05  #: first backoff step, seconds
    cap: float = 2.0  #: upper bound on any single sleep, seconds
    jitter: float = 0.5  #: fraction of the delay randomised away
    statuses: tuple[int, ...] = (429, 503, 504)  #: retryable HTTP codes
    seed: int | None = None  #: jitter stream seed (None: OS entropy)

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def backoff(self, attempt: int, retry_after: float | None = None) -> float:
        """Seconds to sleep before retry *attempt* (0-based)."""
        if retry_after is not None:
            hinted = max(retry_after, 0.0)
            # Additive spread so clients sleeping on the same hint wake
            # desynchronised; scaled by the larger of the hint and the
            # base step so a tiny (or zero) hint still gets a spread.
            hinted += self.jitter * self._rng.random() * max(hinted, self.base)
            return min(hinted, self.cap)
        delay = min(self.cap, self.base * (2 ** attempt))
        return delay * (1 - self.jitter * self._rng.random())


class ServiceError(RuntimeError):
    """A non-2xx service response."""

    def __init__(self, status: int, doc: dict | str):
        detail = doc.get("error") if isinstance(doc, dict) else str(doc)
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.doc = doc


def _header(headers: dict, name: str) -> str | None:
    """The value of header *name* (lower case) in a response's
    *headers*, whose names stay as the server wrote them."""
    for key, value in headers.items():
        if key.lower() == name:
            return value
    return None


class ServiceClient:
    """Blocking JSON client with one persistent keep-alive connection."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        metrics: ServiceMetrics | None = None,
        trace: bool = False,
        tenant: str | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: sent as ``X-Repro-Tenant`` on every request (None: the
        #: server's shared "public" namespace)
        self.tenant = tenant
        #: no retries unless asked: tests of the raw backpressure paths
        #: (and raw load measurement) must see every 429/504 verbatim
        self.retry = retry if retry is not None else RetryPolicy(retries=0)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: send a client-minted ``X-Repro-Trace`` ID with every
        #: ``/predict`` so the server's trace shares the client's handle
        self.trace_requests = trace
        #: trace ID of the most recent ``/predict`` (client-minted, or
        #: the server-assigned ID echoed back in ``X-Repro-Trace``)
        self.last_trace_id: str | None = None
        self._sock: socket.socket | None = None
        self._rfile = None  #: the socket's buffered reader
        self._sleep = _time.sleep  # injectable for tests

    # -- plumbing --------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._rfile = sock, sock.makefile("rb")

    def _attempt(self, method: str, path: str, payload, headers):
        """One HTTP round trip: ``(status, headers, doc)``.

        The whole request goes out in one ``sendall``.  As the router's
        ``_exchange`` does, a request whose reused keep-alive connection
        turns out closed (:class:`ConnectionError`: the server may drop
        an idle connection) is sent once more on a fresh connection.
        Any other failure, a timeout included, and any failure on a
        fresh connection is raised: a request is never sent twice
        because its server was slow.
        """
        # Refuse a target or header value that would break the
        # message's framing: a space or a control character (CR LF
        # above all) there would end its field and start another.
        if " " in path or not all(
            text.isprintable() for text in (path, *headers.values())
        ):
            raise ValueError(f"unsafe request line or header: {path!r}")
        body = payload or b""
        request = render_http_message(
            f"{method} {path} HTTP/1.1",
            [
                ("Host", f"{self.host}:{self.port}"),
                *headers.items(),
                ("Content-Length", len(body)),
            ],
            body,
        )
        for fresh in (False, True) if self._sock is not None else (True,):
            if fresh:
                self._connect()
            try:
                self._sock.sendall(request)
                status, hdrs, raw = read_http_response_blocking(self._rfile)
                break
            except BaseException as exc:
                # Where the next response starts is unknown: never
                # reuse this connection.
                self.close()
                if fresh or not isinstance(exc, ConnectionError):
                    raise
        if _header(hdrs, "connection") == "close":
            self.close()
        ctype = _header(hdrs, "content-type") or ""
        if ctype.startswith("application/json"):
            doc = json.loads(raw) if raw else {}
        else:
            doc = raw.decode()
        return status, hdrs, doc

    @staticmethod
    def _retry_after(headers: dict) -> float | None:
        try:
            return float(_header(headers, "retry-after"))
        except (TypeError, ValueError):
            return None

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        idempotent: bool = True,
    ):
        """One logical request, retried per the client's policy.

        *idempotent* requests (all of ours: ``/predict`` is
        content-addressed and deterministic, the GETs are reads) are
        retried on transport failures and on the policy's retryable
        statuses, sleeping a capped jittered backoff -- or exactly the
        server's ``Retry-After`` -- between attempts.  The final attempt's
        outcome (or transport error) is returned/raised verbatim.
        """
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        if self.trace_requests and path == "/predict":
            # Client-minted trace ID (OS entropy, like the server's own):
            # one ID covers the whole logical request across retries, so
            # every server-side attempt traces under the same handle.
            self.last_trace_id = os.urandom(8).hex()
            headers["X-Repro-Trace"] = self.last_trace_id
        policy = self.retry
        attempt = 0
        while True:
            if attempt > 0:
                # Tell the server which retry ordinal this attempt is
                # (logged by --log-json; never interpreted).
                headers["X-Repro-Attempt"] = str(attempt)
            try:
                status, hdrs, doc = self._attempt(method, path, payload, headers)
            except OSError:
                if not idempotent or attempt >= policy.retries:
                    raise
                self.close()
                self.metrics.inc(
                    "repro_client_retries_total", reason="transport"
                )
                self._sleep(policy.backoff(attempt))
                attempt += 1
                continue
            if (
                idempotent
                and status in policy.statuses
                and attempt < policy.retries
            ):
                self.metrics.inc(
                    "repro_client_retries_total", reason=str(status)
                )
                self._sleep(
                    policy.backoff(attempt, retry_after=self._retry_after(hdrs))
                )
                attempt += 1
                continue
            if path == "/predict":
                trace_id = _header(hdrs, "x-repro-trace")
                if trace_id is not None:
                    self.last_trace_id = trace_id
            return status, hdrs, doc

    def _checked(self, method: str, path: str, body: dict | None = None):
        status, _headers, doc = self._request(method, path, body)
        if status != 200:
            raise ServiceError(status, doc)
        return doc

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    # -- endpoints --------------------------------------------------------------
    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")

    def metrics_text(self) -> str:
        return self._checked("GET", "/metrics")

    def predict(self, **request) -> dict:
        """``POST /predict``; raises :class:`ServiceError` on non-200."""
        return self._checked("POST", "/predict", request)

    def predict_raw(self, request: dict) -> tuple[int, dict, dict]:
        """``POST /predict`` returning (status, headers, doc) -- for
        exercising the backpressure/deadline paths without exceptions.
        Never retried: callers of the raw form want every 429/503/504
        verbatim (the load generator counts them as shed, not masked)."""
        return self._request("POST", "/predict", request, idempotent=False)

    def chaos(self, payload: dict | None = None) -> dict:
        """``/chaos``: snapshot (no payload) or arm faults (payload).
        Only routed when the server runs with ``--chaos``."""
        if payload is None:
            return self._checked("GET", "/chaos")
        return self._checked("POST", "/chaos", payload)

    def distributions(self, **query) -> dict:
        qs = urlencode(query)
        return self._checked(
            "GET", "/distributions" + (f"?{qs}" if qs else "")
        )

    # -- registry endpoints ------------------------------------------------------
    def registry_list(self) -> dict:
        """The fleet listing (``GET /distributions`` -> ``"registry"``)."""
        return self.distributions().get("registry", {})

    def registry_get(self, ref: str, **query) -> dict:
        """``GET /distributions/{ref}``: meta + aliases (plus a
        distribution description when ``size=`` is given)."""
        qs = urlencode(query)
        return self._checked(
            "GET", f"/distributions/{ref}" + (f"?{qs}" if qs else "")
        )

    def registry_add(
        self,
        results: dict | None = None,
        topology: dict | None = None,
        alias: str | None = None,
    ) -> dict:
        """``POST /distributions``: upload a measured results document,
        or a ``simnet`` topology spec fitted server-side."""
        body: dict = {}
        if results is not None:
            body["results"] = results
        if topology is not None:
            body["topology"] = topology
        if alias is not None:
            body["alias"] = alias
        return self._checked("POST", "/distributions", body)

    def registry_promote(self, ref: str, alias: str) -> dict:
        """``PUT /distributions/{ref}/alias``: hot-swap *alias* to *ref*."""
        status, _headers, doc = self._request(
            "PUT", f"/distributions/{ref}/alias", {"alias": alias}
        )
        if status != 200:
            raise ServiceError(status, doc)
        return doc

    def registry_delete(self, ref: str) -> dict:
        """``DELETE /distributions/{ref}``."""
        status, _headers, doc = self._request(
            "DELETE", f"/distributions/{ref}", idempotent=False
        )
        if status != 200:
            raise ServiceError(status, doc)
        return doc

    # -- workload endpoints ------------------------------------------------------
    def models(self, name: str | None = None) -> dict:
        """``GET /models`` (the catalogue) or ``GET /models/{name}``."""
        return self._checked(
            "GET", "/models" if name is None else f"/models/{name}"
        )

    def program_add(self, trace: str, name: str | None = None) -> dict:
        """``POST /programs``: import a recorded MPI trace (JSON lines
        or the OTF2-like text subset); returns its meta, including the
        fingerprint to pass as ``model_params.program``."""
        body: dict = {"trace": trace}
        if name is not None:
            body["name"] = name
        return self._checked("POST", "/programs", body)

    def programs_list(self) -> dict:
        return self._checked("GET", "/programs")

    def program_get(self, ref: str) -> dict:
        return self._checked("GET", f"/programs/{ref}")

    def program_delete(self, ref: str) -> dict:
        status, _headers, doc = self._request(
            "DELETE", f"/programs/{ref}", idempotent=False
        )
        if status != 200:
            raise ServiceError(status, doc)
        return doc

    def trace(self, trace_id: str | None = None, limit: int = 20):
        """``GET /trace``: one trace document by ID, or (with no ID) the
        ``{"traces": [...]}`` listing of recent traces, newest first.
        Raises :class:`ServiceError` when tracing is disabled server-side
        or the ID is unknown."""
        if trace_id is not None:
            return self._checked("GET", "/trace?" + urlencode({"id": trace_id}))
        return self._checked("GET", f"/trace?limit={limit}")


@dataclass
class LoadResult:
    """Outcome of one closed-loop load run."""

    concurrency: int
    duration: float  #: measured wall seconds
    latencies: list[float] = field(repr=False, default_factory=list)
    status_counts: dict[int, int] = field(default_factory=dict)
    errors: int = 0  #: transport-level failures (a malformed response is one)
    retries: int = 0  #: client-side retries (only with a retry policy)

    @property
    def requests(self) -> int:
        return sum(self.status_counts.values())

    @property
    def ok(self) -> int:
        return self.status_counts.get(200, 0)

    @property
    def throughput(self) -> float:
        """Completed requests per wall second."""
        if self.duration <= 0:
            return 0.0
        return self.requests / self.duration

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        hist = Histogram.from_samples(
            self.latencies, bins=min(64, len(self.latencies))
        )
        return hist.quantile(q)

    def summary(self) -> dict:
        return {
            "concurrency": self.concurrency,
            "duration_s": round(self.duration, 4),
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "retries": self.retries,
            "throughput_rps": round(self.throughput, 2),
            "p50_ms": round(self.latency_quantile(0.5) * 1e3, 3),
            "p90_ms": round(self.latency_quantile(0.9) * 1e3, 3),
            "p99_ms": round(self.latency_quantile(0.99) * 1e3, 3),
            "status_counts": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
        }


class LoadGenerator:
    """Closed-loop load: *concurrency* threads, each firing back-to-back
    at one service address (a single server, or a sharded tier's
    router)."""

    def __init__(
        self,
        host: str,
        port: int,
        request_factory: Callable[[int], dict],
        concurrency: int = 8,
        retry: RetryPolicy | None = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.host = host
        self.port = int(port)
        self.request_factory = request_factory
        self.concurrency = concurrency
        #: optional client-side retry policy; ``None`` measures the raw
        #: service (every 429/504 lands in ``status_counts`` verbatim)
        self.retry = retry

    def run(
        self,
        duration: float | None = None,
        total_requests: int | None = None,
    ) -> LoadResult:
        """Drive the service for *duration* seconds or *total_requests*
        completed requests (whichever is given; both means either stops
        the run)."""
        if duration is None and total_requests is None:
            raise ValueError("need duration and/or total_requests")
        result = LoadResult(concurrency=self.concurrency, duration=0.0)
        lock = threading.Lock()
        counter = {"sent": 0}
        stop_at = None
        start_barrier = threading.Barrier(self.concurrency + 1)

        def worker(index: int):
            retry = None
            if self.retry is not None:
                # Per-thread policy clone: decorrelated jitter streams.
                retry = RetryPolicy(
                    retries=self.retry.retries,
                    base=self.retry.base,
                    cap=self.retry.cap,
                    jitter=self.retry.jitter,
                    statuses=self.retry.statuses,
                    seed=(
                        None
                        if self.retry.seed is None
                        else self.retry.seed + index
                    ),
                )
            # One persistent connection per thread.
            client = ServiceClient(self.host, self.port, retry=retry)
            start_barrier.wait()
            while True:
                with lock:
                    if stop_at is not None and _time.perf_counter() >= stop_at:
                        break
                    if (
                        total_requests is not None
                        and counter["sent"] >= total_requests
                    ):
                        break
                    counter["sent"] += 1
                    sequence = counter["sent"] - 1
                request = self.request_factory(sequence)
                t0 = _time.perf_counter()
                try:
                    if retry is not None:
                        status, _, _ = client._request(
                            "POST", "/predict", request
                        )
                    else:
                        status, _, _ = client.predict_raw(request)
                except (OSError, ValueError):
                    with lock:
                        result.errors += 1
                    continue
                latency = _time.perf_counter() - t0
                with lock:
                    result.latencies.append(latency)
                    result.status_counts[status] = (
                        result.status_counts.get(status, 0) + 1
                    )
            retried = client.metrics.total("repro_client_retries_total")
            with lock:
                result.retries += int(retried)
            client.close()

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"loadgen-{i}", daemon=True
            )
            for i in range(self.concurrency)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        t0 = _time.perf_counter()
        if duration is not None:
            stop_at = t0 + duration
        for thread in threads:
            thread.join()
        result.duration = _time.perf_counter() - t0
        return result
