"""The service's HTTP/1.1 wire format, as a raw socket sees it.

The shard server and the front router speak the same hand-rolled
HTTP/1.1.  These tests pin the bytes no client-level test looks at: a
response's exact start line and header order, the silence a malformed
request line gets, and how the router treats a backend whose status
line is malformed.
"""

import json
import socket

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.service import (
    HashRing,
    PredictionService,
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
