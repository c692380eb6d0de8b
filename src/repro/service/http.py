"""HTTP/1.1 for the prediction service: the one wire layer under the
shard server (:class:`~.server.ServiceServer`) and the front router
(:class:`~.router.ShardRouter`).

Stdlib-only and hand-rolled over ``asyncio`` streams (no
``http.server``), so both ends of a forwarded request parse and write
identically:

* :func:`read_http_request` / :func:`read_http_response` -- read one
  Content-Length framed message;
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
    "render_http_message",
    "render_http_response",
]

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


async def _read_message(reader, response: bool):
    """Read one message: its start line's fields, then the lower-cased
    headers and the body.  The start line is checked before any header
    is read; a malformed one raises :class:`ConnectionError`.  Returns
    ``None`` on a connection closed before a request line."""
    line = await reader.readline()
    if not line:
        if response:
            raise ConnectionError("backend closed connection")
        return None
    parts = line.decode("latin-1").split()
    if response:
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError("malformed backend status line")
        start = (int(parts[1]),)
    elif len(parts) == 3:
        start = (parts[0].upper(), parts[1])
    else:
        raise ConnectionError("malformed request line")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or 0)
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
