"""Asyncio HTTP front end for the forecast-product service.

Stdlib-only (``asyncio`` + a minimal HTTP/1.1 implementation): one
:class:`ProductHTTPServer` wraps a
:class:`~repro.products.service.ProductService` and speaks just enough
HTTP for load generators, curl and browsers -- GET requests,
persistent connections (keep-alive by default, honoured until the
client sends ``Connection: close``), ``Content-Length`` framing and the
service's ETag/503 semantics passed straight through.

**What runs where** (``docs/PRODUCT_SERVICE.md``).  Each connection is
one :class:`asyncio.Protocol`: ``data_received`` appends to the
connection's buffer and answers every complete request in it, in order,
in the same callback -- no task, no await and no timer per request.
``ProductService.cached`` runs *on the event loop* and answers everything
memory can, rendering a cold body from a warm snapshot too: the JSON
encoder holds the interpreter lock for its whole call, so on a thread it
blocked the loop as long and added a hop.  Only its ``None`` -- a request
that must read a file -- goes to a one-worker thread pool running
``ProductService.handle``; the connection is busy until its answer is
written, so pipelined requests keep their order.  The loop's one system
call is an ``os.stat`` of ``HEAD.json`` per ``latest`` request.  A
connection has one deadline, kept as a ``(when, action)`` pair and served
by one timer that re-arms itself when it fires early, so moving the
deadline later costs no timer.

**Hostile input.**  A head is CRLF-framed: it ends at the first CRLF CRLF,
and a lone CR or LF in it is refused as soon as it is buffered.  The
request line and the header block are each at most
:data:`MAX_HEAD_BYTES`, every line at most :data:`MAX_LINE_BYTES`, at
most :data:`MAX_HEADERS` of them.  ``400``: malformed head,
``Transfer-Encoding``, ``Content-Length`` not digits or repeated with
different values, EOF mid-request.  ``413``: a body over
:data:`MAX_BODY_BYTES` (smaller ones are drained).  ``408``: head or body
incomplete :data:`HEAD_TIMEOUT_S` after its first byte.  A refusal
half-closes and discards input until EOF or :data:`LINGER_S` before it
closes, so the client reads it instead of a reset.  A connection silent
for :data:`IDLE_TIMEOUT_S` between requests is closed unanswered; one not
draining a response for as long is aborted.  Reading pauses while more
than twice :data:`MAX_HEAD_BYTES` is buffered.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager, suppress
from functools import partial

from repro.products.service import ProductService, ServiceResponse

#: Upper bound on one request line or header line (DoS hygiene).
MAX_LINE_BYTES = 16 * 1024
#: Upper bound on the number of request headers read per request.
MAX_HEADERS = 100
#: Upper bound on the request line and on the header block (asyncio's
#: ``StreamReader`` limit); reading pauses above twice this much buffered.
MAX_HEAD_BYTES = 64 * 1024
#: Largest request body drained to keep the connection's framing intact.
MAX_BODY_BYTES = 4 * 1024
#: Seconds from a request's first byte to the end of its head and body.
HEAD_TIMEOUT_S = 10.0
#: Seconds a connection may neither send a request nor drain a response.
IDLE_TIMEOUT_S = 60.0
#: Seconds input is still read and discarded after a refusal.
LINGER_S = 2.0

_HEAD_END = b"\r\n\r\n"
_VERSION = {True: b"HTTP/1.1", False: b"HTTP/1.0"}
_CONNECTION = {True: b"Connection: keep-alive\r\n\r\n", False: b"Connection: close\r\n\r\n"}
_REFUSED = b'{"error": "request refused"}'


def _parse_head(head: bytes) -> tuple[str, dict[str, str]] | None:
    """Start line and lower-cased headers of one head; None if malformed."""
    text = head.removesuffix(_HEAD_END).decode("latin-1")
    start, *lines = text.split("\r\n")
    n = len(lines)  # so many CRLFs: any other CR or LF (an unended head's too) is stray
    if n > MAX_HEADERS or text.count("\n") != n or text.count("\r") != n:
        return None
    if len(text) > MAX_LINE_BYTES and len(max(start, *lines, key=len)) > MAX_LINE_BYTES:
        return None
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        name, value = name.strip().lower(), value.strip()
        if not sep or (name == "content-length" and headers.get(name, value) != value):
            return None
        headers[name] = value
    return start, headers


class _Connection(asyncio.Protocol):
    """One client connection: its buffer, its parser state and its deadline.

    ``busy`` holds the parser while a request is on the executor or the
    transport's write buffer is full; ``refused`` is set once a refusal is
    written, after which input is discarded.  The deadline is ``due =
    (when, action)``, ``action`` a plain function called with the
    connection -- never a bound method, which would put the connection (and
    through :attr:`server` the service) in a reference cycle -- and
    ``timer`` fires at or before ``when``.
    """

    def __init__(self, server: ProductHTTPServer):
        self.server = server
        self.loop = server._loop
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.started = 0.0  # loop time the buffered request began
        self.scanned = 0  # bytes of a partial head checked for a lone CR or LF
        self.body = None  # (request, end of its body) once its head is parsed
        self.busy = self.refused = self.eof = self.reading_paused = False
        self.due = None
        self.timer: asyncio.TimerHandle | None = None

    # -- transport events ------------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._deadline(self.loop.time() + IDLE_TIMEOUT_S, _Connection._close)

    def data_received(self, data: bytes) -> None:
        if self.refused:
            return  # lingering: discarded
        buffer = self.buffer
        if not buffer:
            self.started = self.loop.time()
        buffer += data
        if len(buffer) > 2 * MAX_HEAD_BYTES and not self.reading_paused:
            self.reading_paused = True
            self.transport.pause_reading()
        if not self.busy:
            self._serve()

    def eof_received(self) -> bool:
        self.eof = True
        if self.refused:
            self._close()
        elif not self.busy:
            self._serve()
        return True  # half-open: the answers still owed are written first

    def pause_writing(self) -> None:
        if not self.refused:
            self.busy = True
            self._deadline(self.loop.time() + IDLE_TIMEOUT_S, _Connection._abort)

    def resume_writing(self) -> None:
        if self.busy and not self.transport.is_closing():
            self._resume()

    def connection_lost(self, exc) -> None:
        self.transport = self.due = None
        if self.timer is not None:
            self.timer.cancel()  # drops the loop's reference to this connection
            self.timer = None

    # -- requests --------------------------------------------------------------

    def _serve(self) -> None:
        """Answer the buffered requests in order until one must wait, the
        connection ends, or at most part of one is left."""
        service = self.server.service
        while (request := self._next_request()) is not None:
            if isinstance(request, int):
                return self._refuse(request)
            method, target, http11, headers = request
            keep_alive = http11 and headers.get("connection", "").lower() != "close"
            response = service.cached(method, target, headers)
            if response is None:  # a file must be read
                self.busy = True
                self.loop.run_in_executor(
                    self.server._executor, service.handle, method, target, headers
                ).add_done_callback(partial(self._answered, keep_alive, http11))
                return
            self._send(response, keep_alive, http11)
            if not keep_alive:
                return self._close()
            if self.busy:
                return  # the write buffer is full: resume_writing goes on
        buffer = self.buffer
        if not buffer:
            if self.eof:
                return self._close()
            self._deadline(self.loop.time() + IDLE_TIMEOUT_S, _Connection._close)
        elif self.due is None or self.due[1] is not _Connection._timed_out:
            self._deadline(self.started + HEAD_TIMEOUT_S, _Connection._timed_out)
        if self.reading_paused and len(buffer) <= MAX_HEAD_BYTES:
            self.reading_paused = False
            self.transport.resume_reading()

    def _next_request(self):
        """Take the next complete request off the buffer: ``(method, target,
        http11, headers)``, the status to refuse the connection with, or
        None while no complete request is buffered."""
        buffer = self.buffer
        if self.body is None:
            end = buffer.find(_HEAD_END, max(self.scanned - 3, 0))
            if end < 0:
                return self._partial_head()
            end += 4
            if end > MAX_HEAD_BYTES and end - buffer.find(b"\n") > MAX_HEAD_BYTES:
                return 400  # a header block over the limit
            parsed = _parse_head(buffer[:end])
            parts = parsed[0].split() if parsed else ()
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                return 400
            headers = parsed[1]
            length = headers.get("content-length", "0")
            if not length.isdigit() or "transfer-encoding" in headers:
                return 400
            try:
                size = int(length)
            except ValueError:  # a digit int() does not read, or too many
                return 400
            if size > MAX_BODY_BYTES:
                return 413
            self.body = (parts[0], parts[1], parts[2] == "HTTP/1.1", headers), end + size
        request, end = self.body
        if len(buffer) < end:
            return 400 if self.eof else None  # the body is still coming
        del buffer[:end]
        self.body, self.scanned, self.due = None, 0, None
        if buffer:
            self.started = self.loop.time()
        return request

    def _partial_head(self):
        """None while the buffered part of a head can still end in CRLF CRLF,
        else the status to refuse it with."""
        buffer = self.buffer
        if not buffer:
            return None
        if self.eof:
            return 400  # EOF mid-request
        start, cr = self.scanned, buffer.endswith(b"\r")  # a CR its LF may follow
        pairs = buffer.count(b"\r\n", start)
        if buffer.count(b"\n", start) != pairs or buffer.count(b"\r", start) != pairs + cr:
            return 400  # a lone CR or LF: this head can never end
        self.scanned = len(buffer) - cr
        if len(buffer) - buffer.find(b"\n") > MAX_HEAD_BYTES:
            return 400  # a request line or header block over the limit
        return None

    def _answered(self, keep_alive: bool, http11: bool, future) -> None:
        """The executor's answer: write it and go on parsing."""
        if self.transport is None:
            return  # the client went away meanwhile
        try:
            response = future.result()
        except Exception:
            self.transport.close()  # as a failed connection task closed it
            raise
        self.busy = False
        self._send(response, keep_alive, http11)
        if not keep_alive:
            self._close()
        elif not self.busy:
            self._resume()

    def _resume(self) -> None:
        """Go on parsing after a wait: an executor answer or a drained write."""
        self.busy, self.due = False, None
        if self.buffer:
            self.started = self.loop.time()
        self._serve()

    def _send(self, response: ServiceResponse, keep_alive: bool, http11: bool) -> None:
        """Write one response with explicit length framing."""
        head = _VERSION[http11] + response.head + _CONNECTION[keep_alive]
        self.transport.writelines((head, response.body))  # no copy of the body on 3.12+

    def _refuse(self, status: int) -> None:
        """Answer ``status``, half-close, and discard input until EOF or
        :data:`LINGER_S` before closing."""
        self.refused = True
        self.buffer.clear()
        self._send(ServiceResponse(status, _REFUSED), False, True)
        with suppress(OSError):  # the client is already gone
            self.transport.write_eof()
        if self.eof:
            return self._close()
        if self.reading_paused:
            self.transport.resume_reading()
        self._deadline(self.loop.time() + LINGER_S, _Connection._close)

    # -- the deadline ------------------------------------------------------------

    def _deadline(self, when: float, action) -> None:
        """Make ``action(self)`` due at loop time ``when``.  A timer is made
        only if the armed one would fire too late; one that fires early
        re-arms itself (:meth:`_fire`)."""
        self.due = when, action
        timer = self.timer
        if timer is None or when < timer.when():
            if timer is not None:
                timer.cancel()
            self.timer = self.loop.call_at(when, self._fire)

    def _fire(self) -> None:
        due = self.due
        if due is not None and due[0] > self.timer.when():  # moved later
            self.timer = self.loop.call_at(due[0], self._fire)
            return
        self.due = self.timer = None
        if due is not None:
            due[1](self)

    def _timed_out(self) -> None:
        self._refuse(408)

    def _close(self) -> None:
        """Close once the written bytes are sent; abort a peer that does not
        take them within :data:`IDLE_TIMEOUT_S`."""
        self.transport.close()
        if self.transport.get_write_buffer_size():
            self._deadline(self.loop.time() + IDLE_TIMEOUT_S, _Connection._abort)

    def _abort(self) -> None:
        self.transport.abort()


class ProductHTTPServer:
    """Serve one :class:`ProductService` over asyncio TCP.

    Parameters
    ----------
    service:
        The configured read path (store directory, caches, telemetry).
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    """

    def __init__(self, service: ProductService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="product-service")
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(self._connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        self._executor.shutdown(wait=True)  # started with the server
        self._executor = None

    @asynccontextmanager
    async def serving(self):
        """``async with server.serving():`` start/stop bracketing."""
        await self.start()
        try:
            yield self
        finally:
            await self.stop()

    def _connection(self) -> _Connection:
        """The protocol of one accepted connection."""
        return _Connection(self)


async def fetch(
    host: str,
    port: int,
    target: str,
    headers: dict[str, str] | None = None,
    reader: asyncio.StreamReader | None = None,
    writer: asyncio.StreamWriter | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """Minimal asyncio HTTP GET (the test/bench client half).

    Pass ``reader``/``writer`` from a previous call's connection to
    reuse it (keep-alive); otherwise a fresh connection is opened and
    closed.  Returns ``(status, headers, body)``.
    """
    own_connection = reader is None
    if own_connection:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        request = [f"GET {target} HTTP/1.1", f"Host: {host}:{port}"]
        for name, value in (headers or {}).items():
            request.append(f"{name}: {value}")
        if own_connection:
            request.append("Connection: close")
        writer.write(("\r\n".join(request) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        status_line, response_headers = _parse_head(await reader.readuntil(_HEAD_END))
        length = int(response_headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return int(status_line.split(maxsplit=2)[1]), response_headers, body
    finally:
        if own_connection:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
