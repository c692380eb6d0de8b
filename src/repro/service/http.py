"""HTTP/1.1 for the prediction service: the one wire layer under the
shard server (:class:`~.server.ServiceServer`), the front router
(:class:`~.router.ShardRouter`) and the blocking client
(:class:`~.client.ServiceClient`).

Stdlib-only and hand-rolled over sockets and ``asyncio`` streams (no
stdlib HTTP module), so every end of a request parses and writes by the
same rules:

* :func:`read_http_request` / :func:`read_http_response` -- read one
  Content-Length framed message from an ``asyncio`` stream;
  :func:`read_http_response_blocking` reads a response from a
  blocking socket file by the same parse helpers;
* :func:`render_http_message` / :func:`render_http_response` -- write
  one;
* :class:`HTTPServer` -- the listener and the keep-alive connection
  loop; a subclass answers each request in
  :meth:`~HTTPServer.respond`;
* :class:`LoopThread` -- an :class:`HTTPServer` on a background thread
  with its own event loop.
"""

from __future__ import annotations

import asyncio
import threading

__all__ = [
    "HTTPServer",
    "LoopThread",
    "read_http_request",
    "read_http_response",
    "read_http_response_blocking",
    "render_http_message",
    "render_http_response",
]

#: longest line a blocking read accepts, as an ``asyncio`` stream's
#: default limit does
_LINE_LIMIT = 2 ** 16

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _start_line(line: bytes, response: bool) -> tuple:
    """A start line's fields: ``(status,)`` for a response, ``(method,
    target)`` for a request.  A malformed line, or a response that ends
    before its status line, raises :class:`ConnectionError`."""
    if not line and response:
        raise ConnectionError("connection closed before the status line")
    parts = line.decode("latin-1").split()
    if response:
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError("malformed status line")
        return (int(parts[1]),)
    if len(parts) != 3:
        raise ConnectionError("malformed request line")
    return (parts[0].upper(), parts[1])


def _header_line(line: bytes) -> tuple[str, str] | None:
    """A header line's ``(name, value)``, the name as written; ``None``
    for the blank line (or end of input) that ends the head."""
    if line in (b"\r\n", b"\n", b""):
        return None
    name, _, value = line.decode("latin-1").partition(":")
    return name.strip(), value.strip()


def _content_length(value: str | None) -> int:
    """The body length a ``Content-Length`` value gives (``None``: no
    body).  A value that is not a count raises :class:`ValueError`."""
    length = int(value or 0)
    if length < 0:
        raise ValueError(f"negative Content-Length {length}")
    return length


async def _read_message(reader, response: bool):
    """Read one message: its start line's fields, then the lower-cased
    headers and the body.  The start line is checked before any header
    is read.  Returns ``None`` on a connection closed before a request
    line."""
    line = await reader.readline()
    if not line and not response:
        return None
    start = _start_line(line, response)
    headers: dict[str, str] = {}
    while (field := _header_line(await reader.readline())) is not None:
        headers[field[0].lower()] = field[1]
    length = _content_length(headers.get("content-length"))
    body = await reader.readexactly(length) if length else b""
    return (*start, headers, body)


async def read_http_request(reader):
    """Read one request: ``(method, target, headers, body)``, or
    ``None`` on a cleanly closed connection."""
    return await _read_message(reader, response=False)


async def read_http_response(reader):
    """Read one response: ``(status, headers, body)``.  A connection
    closed before the status line raises :class:`ConnectionError`."""
    return await _read_message(reader, response=True)


def _readline(rfile) -> bytes:
    """One line of *rfile*, at most :data:`_LINE_LIMIT` bytes long."""
    line = rfile.readline(_LINE_LIMIT + 1)
    if len(line) > _LINE_LIMIT:
        raise ValueError("response line too long")
    return line


def read_http_response_blocking(rfile):
    """Read one response from a blocking binary file (a socket's
    ``makefile("rb")``) by the rules :func:`read_http_response` uses:
    ``(status, headers, body)``, with header names as written.  A
    response cut short raises :class:`ConnectionError`, and a line
    longer than an ``asyncio`` stream accepts :class:`ValueError`."""
    (status,) = _start_line(_readline(rfile), response=True)
    headers: dict[str, str] = {}
    length = None
    while (field := _header_line(_readline(rfile))) is not None:
        name, value = field
        headers[name] = value
        if name.lower() == "content-length":
            length = value
    length = _content_length(length)
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise ConnectionError("response body cut short")
    return status, headers, body


def render_http_message(start_line: str, headers, body: bytes) -> bytes:
    """Serialise one message: *start_line*, the ``(name, value)`` pairs
    of *headers* in their order (a name may repeat), then *body*."""
    lines = [start_line]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_http_response(
    status: int,
    payload: bytes,
    content_type: str,
    extra_headers: dict | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response: Content-Type, Content-Length and
    Connection, then *extra_headers* in their order."""
    headers = [
        ("Content-Type", content_type),
        ("Content-Length", len(payload)),
        ("Connection", "keep-alive" if keep_alive else "close"),
    ]
    if extra_headers:
        headers.extend(extra_headers.items())
    return render_http_message(
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        headers,
        payload,
    )


class HTTPServer:
    """A keep-alive HTTP/1.1 listener on ``(host, port)``.

    A subclass answers each request in :meth:`respond`.  A connection
    ends when the client closes it or asks for ``Connection: close``,
    when it sends a malformed request (which gets no response), and
    after any response written while :attr:`draining` is true.
    """

    #: answer with ``Connection: close`` and end each connection
    draining = False

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def respond(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple[int, bytes, str, dict]:
        """Answer one request: ``(status, payload, content type, extra
        headers)``.  It must not raise: the connection stays up."""
        raise NotImplementedError

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError,
                        ValueError):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, content_type, extra = await self.respond(
                    method, target, headers, body
                )
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not self.draining
                )
                writer.write(
                    render_http_response(
                        status, payload, content_type, extra, keep_alive
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Shutdown cancelling an idle keep-alive connection: end it
            # quietly (asyncio's stream wrapper retrieves the handler
            # task's exception and would log the cancellation).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def start(self) -> tuple[str, int]:
        """Listen; an unset port (0) becomes the one the OS picked."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and end every connection.  Idle keep-alive
        connections park in ``readline()``, so they are cancelled."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if server is not None:
            await server.wait_closed()


class LoopThread:
    """Run an :class:`HTTPServer` on a background thread with its own
    event loop: in-process servers with a real socket (tests, the load
    generator) and the supervisor's router.

    Other threads change the server's state through :meth:`call`, which
    runs on the loop, so that state is only ever touched from one
    thread.
    """

    def __init__(self, server: HTTPServer):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def start(self) -> tuple[str, int]:
        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.server.start())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name=f"repro-{type(self.server).__name__}",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError(
                f"{type(self.server).__name__} failed to start within 30s"
            )
        return self.address

    def call(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the server's loop, or here if the loop
        is not running."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(fn, *args)
        else:
            fn(*args)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self._loop = None
