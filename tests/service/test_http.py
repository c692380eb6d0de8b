"""The service's HTTP/1.1 wire format, as a raw socket sees it.

The shard server, the front router and the blocking client speak the
same hand-rolled HTTP/1.1.  These tests pin the bytes no client-level
test looks at: a response's exact start line and header order, the
silence a malformed request line gets, how the router treats a backend
whose status line is malformed, and the client's side of the wire --
one write per request, header names as written, when a connection is
reused, and what a broken response raises.
"""

import json
import socket
import threading
from urllib.parse import parse_qsl, urlsplit

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.service import (
    HashRing,
    PredictionService,
    ServiceClient,
    ServiceThread,
    routing_key_for,
)
from repro.simnet import perseus

from .test_sharding import StubShard, _request, _run_router_scenario, _send

pytestmark = pytest.mark.service

SPEC = perseus(16)


@pytest.fixture(scope="module")
def address():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=10, warmup=2))
    db = bench.sweep_isend([(2, 1)], sizes=[0, 1024])
    with ServiceThread(PredictionService(db, spec=SPEC)) as thread:
        yield thread.address


def _raw_exchange(address, raw: bytes) -> bytes:
    """Send *raw*; return every byte the server writes until it closes."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _split_responses(raw: bytes) -> list[tuple[list[str], bytes]]:
    """Content-Length framed responses -> [(head lines, body)]."""
    responses = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        responses.append((lines, raw[:length]))
        raw = raw[length:]
    return responses


def test_response_head_is_status_line_and_three_headers(address):
    # Two pipelined requests on one connection: the first keeps it
    # alive, the second asks the server to close it.
    raw = _raw_exchange(
        address,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    responses = _split_responses(raw)
    assert len(responses) == 2
    for (lines, body), connection in zip(responses, ("keep-alive", "close")):
        assert lines == [
            "HTTP/1.1 200 OK",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {connection}",
        ]
        assert json.loads(body)["status"] == "ok"


def test_malformed_request_line_gets_no_response(address):
    for line in (b"NONSENSE\r\n\r\n", b"GET / HTTP/1.1 extra\r\n\r\n"):
        assert _raw_exchange(address, line) == b""
    # The server keeps serving other connections.
    raw = _raw_exchange(
        address, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert raw.startswith(b"HTTP/1.1 200 OK\r\n")


class GarbledShard(StubShard):
    """A backend that reads a whole request and answers with a status
    line that has no status code, then holds the connection open."""

    async def _handle(self, reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            self.requests.append(head.split(b" ", 2)[1].decode())
            length = 0
            for line in head.decode("latin-1").split("\r\n"):
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)
            writer.write(b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            await reader.read()  # until the router drops the connection
        finally:
            writer.close()


def test_router_treats_malformed_status_line_as_transport_failure():
    async def scenario(router, shards, downs):
        body = _request(seed=1)
        ring = HashRing(range(len(shards)))
        owner, failover = ring.owners(routing_key_for(body))[:2]
        await shards[owner].stop()
        garbled = GarbledShard(owner)
        router.backends[owner].port = await garbled.start()
        try:
            status, headers, doc = await _send(
                router.host, router.port, "POST", "/predict", body
            )
        finally:
            await garbled.stop()
        assert garbled.requests == ["/predict"]
        # Marked down, reported, and served by the key's next owner.
        assert router.backends[owner].state == "down"
        assert downs == [owner]
        assert status == 200
        assert doc["shard_id"] == failover
        assert headers["x-repro-shard"] == str(failover)
        assert router.metrics.counter(
            "repro_router_retries_total", reason="transport"
        ) == 1.0

    _run_router_scenario(scenario)


# -- the client's side of the wire -------------------------------------------

OK = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\n\r\n{}"
)


def _read_request(rfile) -> str | None:
    """Read one request from *rfile*; its target, or None at the end."""
    line = rfile.readline()
    if not line:
        return None
    length = 0
    while (header := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    rfile.read(length)
    return line.split()[1].decode()


class RawPeer:
    """A scripted HTTP/1.1 server, one thread per connection.

    ``answer(connection, request)`` -- both counted from 0 -- gives the
    bytes to write for that request and whether to keep the connection
    open afterwards.  :attr:`connections` holds each accepted
    connection's request targets.
    """

    def __init__(self, answer):
        self.answer = answer
        self.connections: list[list[str]] = []
        self.closed = threading.Semaphore(0)  #: released per ended connection
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._stop = threading.Event()
        self._socks: list[socket.socket] = []
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()
        self.address = self._listener.getsockname()

    def _accept(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self._socks.append(conn)
            self.connections.append([])
            threading.Thread(
                target=self._converse,
                args=(conn, len(self.connections) - 1),
                daemon=True,
            ).start()

    def _converse(self, conn, index):
        targets = self.connections[index]
        try:
            with conn, conn.makefile("rb") as rfile:
                while (target := _read_request(rfile)) is not None:
                    targets.append(target)
                    reply, keep_open = self.answer(index, len(targets) - 1)
                    conn.sendall(reply)
                    if not keep_open:
                        break
        except OSError:
            pass  # the test is done with this connection
        finally:
            self.closed.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._accepter.join(timeout=5.0)
        assert not self._accepter.is_alive()
        self._listener.close()
        for conn in self._socks:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _CountingSocket:
    """A socket that records the payload of every ``sendall``."""

    def __init__(self, sock, sent: list):
        self._sock, self._sent = sock, sent

    def sendall(self, data, *flags):
        self._sent.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_client_writes_each_request_with_one_sendall(address, monkeypatch):
    sent: list[bytes] = []
    create = socket.create_connection
    monkeypatch.setattr(
        socket, "create_connection",
        lambda *args, **kwargs: _CountingSocket(create(*args, **kwargs), sent),
    )
    host, port = address
    body = {"model": "jacobi", "nprocs": 2, "runs": 1, "seed": 1}
    client = ServiceClient(host, port, trace=True)
    try:
        assert client.healthz()["status"] == "ok"
        status, _, _ = client.predict_raw(body)
    finally:
        client.close()
    assert status == 200
    assert len(sent) == 2  # one write per request, on one connection
    head, _, payload = sent[1].partition(b"\r\n\r\n")
    assert head.decode("latin-1").split("\r\n") == [
        "POST /predict HTTP/1.1",
        f"Host: {host}:{port}",
        "Content-Type: application/json",
        f"X-Repro-Trace: {client.last_trace_id}",
        f"Content-Length: {len(payload)}",
    ]
    assert json.loads(payload) == body
    assert sent[0].startswith(b"GET /healthz HTTP/1.1\r\n")


def test_client_keeps_header_names_as_written():
    reply = (
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
        b"X-Mixed-Case: a\r\nCONTENT-LENGTH: 12\r\n\r\n{\"ok\": true}"
    )
    with RawPeer(lambda conn, req: (reply, True)) as peer:
        client = ServiceClient(*peer.address, timeout=5.0)
        try:
            status, headers, doc = client._request("GET", "/x")
        finally:
            client.close()
    assert status == 200
    assert headers == {
        "content-type": "application/json",
        "X-Mixed-Case": "a",
        "CONTENT-LENGTH": "12",
    }
    assert doc == {"ok": True}


def test_client_opens_a_fresh_connection_after_connection_close():
    reply = OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
    # The peer keeps each connection open: a reused one would see both
    # requests.
    with RawPeer(lambda conn, req: (reply, True)) as peer:
        client = ServiceClient(*peer.address, timeout=5.0)
        try:
            assert client._request("GET", "/a")[0] == 200
            assert client._request("GET", "/b")[0] == 200
        finally:
            client.close()
    assert peer.connections == [["/a"], ["/b"]]


def test_client_resends_once_when_an_idle_connection_was_closed():
    # The first connection answers once, then the peer closes it while
    # the client holds it idle.
    with RawPeer(lambda conn, req: (OK, conn > 0)) as peer:
        client = ServiceClient(*peer.address, timeout=5.0)
        try:
            assert client._request("GET", "/a")[0] == 200
            assert peer.closed.acquire(timeout=5.0)
            assert client._request("GET", "/b")[0] == 200
            assert client._request("GET", "/c")[0] == 200
        finally:
            client.close()
    assert peer.connections == [["/a"], ["/b", "/c"]]


def test_client_raises_a_fresh_connection_failure_after_one_send():
    # Every request is read, then its connection closed unanswered.
    with RawPeer(lambda conn, req: (b"", False)) as peer:
        client = ServiceClient(*peer.address, timeout=5.0)
        try:
            with pytest.raises(ConnectionError):
                client._request("DELETE", "/a")
        finally:
            client.close()
    assert peer.connections == [["/a"]]


def test_client_does_not_resend_a_request_that_timed_out():
    # A slow reply on a reused connection is the server's delay, not a
    # stale connection: the request must not go out a second time.
    script = {0: (OK, True), 1: (b"", True)}
    with RawPeer(lambda conn, req: script[req]) as peer:
        client = ServiceClient(*peer.address, timeout=0.3)
        try:
            assert client._request("GET", "/a")[0] == 200
            with pytest.raises(TimeoutError):
                client._request("GET", "/b")
        finally:
            client.close()
    assert peer.connections == [["/a", "/b"]]


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{\"cut\": ",
    ],
    ids=["malformed-status-line", "short-body"],
)
def test_client_raises_connection_error_on_a_broken_response(reply):
    with RawPeer(lambda conn, req: (reply, False)) as peer:
        client = ServiceClient(*peer.address, timeout=5.0)
        try:
            with pytest.raises(ConnectionError):
                client._request("GET", "/a")
        finally:
            client.close()
    assert peer.connections == [["/a"]]


def test_client_refuses_a_request_that_would_break_framing():
    with RawPeer(lambda conn, req: (OK, True)) as peer:
        for path, tenant in [
            ("/distributions/a b", None),
            ("/distributions/a\r\nX-Evil: 1", None),
            ("/healthz", "alice\r\nX-Evil: 1"),
        ]:
            client = ServiceClient(*peer.address, timeout=5.0, tenant=tenant)
            try:
                with pytest.raises(ValueError):
                    client._request("GET", path)
            finally:
                client.close()
    assert peer.connections == []


def test_client_query_values_reach_the_server_whole():
    value = "a b&seed=7"
    with RawPeer(lambda conn, req: (OK, True)) as peer:
        client = ServiceClient(*peer.address, timeout=5.0)
        try:
            client.distributions(op=value)
            client.registry_get("fp", size=value)
        finally:
            client.close()
    queries = [
        dict(parse_qsl(urlsplit(target).query))
        for target in peer.connections[0]
    ]
    assert queries == [{"op": value}, {"size": value}]
