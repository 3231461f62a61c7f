"""Asyncio HTTP front end for the forecast-product service.

Stdlib-only (``asyncio`` + a minimal HTTP/1.1 implementation): one
:class:`ProductHTTPServer` wraps a
:class:`~repro.products.service.ProductService` and speaks just enough
HTTP for load generators, curl and browsers -- GET requests,
persistent connections (keep-alive by default, honoured until the
client sends ``Connection: close``), ``Content-Length`` framing and the
service's ETag/503 semantics passed straight through.

**What runs where** (``docs/PRODUCT_SERVICE.md``).  ``ProductService.cached``
runs *on the event loop* and answers everything memory can, rendering a
cold body from a warm snapshot too: the JSON encoder holds the
interpreter lock for its whole call, so on a thread it blocked the loop
as long and added a hop.  Only its ``None`` -- a request that must read a
file -- goes to a one-worker thread pool running ``ProductService.handle``;
the loop's one system call is an ``os.stat`` of ``HEAD.json`` per
``latest`` request.

**Hostile input.**  A head is CRLF-framed: a request line ending in a
bare LF is refused at once, and the header lines are one
``readuntil(b"\\r\\n\\r\\n")`` under :data:`MAX_LINE_BYTES`,
:data:`MAX_HEADERS` and the 64 KiB ``StreamReader`` limit.  ``400``:
malformed head, ``Transfer-Encoding``, ``Content-Length`` not digits or
repeated with different values.  ``413``: a body over
:data:`MAX_BODY_BYTES` (smaller ones are drained).  ``408``: head or body
incomplete :data:`HEAD_TIMEOUT_S` after its first byte.  A refusal
half-closes and discards input until EOF or :data:`LINGER_S` before it
closes, so the client reads it instead of a reset.  A connection silent
for :data:`IDLE_TIMEOUT_S` between requests is closed unanswered; one not
draining a response for as long is aborted.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager, suppress

from repro.products.service import ProductService, ServiceResponse

#: Upper bound on one request line or header line (DoS hygiene).
MAX_LINE_BYTES = 16 * 1024
#: Upper bound on the number of request headers read per request.
MAX_HEADERS = 100
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
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
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

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """Serve requests on one connection until close or error."""
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break  # clean EOF, or idle past the deadline
                if isinstance(request, int):
                    refusal = ServiceResponse(request, b'{"error": "request refused"}')
                    await self._write_response(writer, refusal, False, True)
                    await self._linger(reader, writer)
                    break
                method, target, http11, headers = request
                response = self.service.cached(method, target, headers)
                if response is None:
                    response = await self._loop.run_in_executor(
                        self._executor, self.service.handle, method, target, headers
                    )
                keep_alive = http11 and headers.get("connection", "").lower() != "close"
                await self._write_response(writer, response, keep_alive, http11)
                if not keep_alive:
                    break
        except OSError:
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            if writer.transport.get_write_buffer_size():  # a peer that stopped reading
                self._loop.call_later(IDLE_TIMEOUT_S, writer.transport.abort)

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request: ``(method, target, http11, headers)``, None to close
        without an answer, or the status to refuse it with."""
        expire, first = reader.set_exception, b""
        timer = self._loop.call_later(IDLE_TIMEOUT_S, expire, TimeoutError())
        try:
            first = await reader.read(1)
            if not first:
                return None  # the client closed between requests
            timer.cancel()
            timer = self._loop.call_later(HEAD_TIMEOUT_S, expire, TimeoutError())
            head = first + await reader.readuntil(b"\n")
            if head[-2:] != b"\r\n":
                return 400  # a bare-LF head: no CRLF CRLF is coming to end it
            head += await reader.readexactly(1)  # CR unless a header line follows
            rest = reader.readexactly(1) if head[-1:] == b"\r" else reader.readuntil(_HEAD_END)
            parsed = _parse_head(head + await rest)
            parts = parsed[0].split() if parsed else ()
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                return 400
            headers = parsed[1]
            length = headers.get("content-length", "0")
            if not length.isdigit() or "transfer-encoding" in headers:
                return 400
            if int(length) > MAX_BODY_BYTES:
                return 413
            if length != "0":
                await reader.readexactly(int(length))
            return parts[0], parts[1], parts[2] == "HTTP/1.1", headers
        except TimeoutError:
            return 408 if first else None  # mid-request, or merely idle
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
            return 400  # EOF mid-request; head past the stream limit; int() refused
        finally:
            timer.cancel()

    async def _linger(self, reader: asyncio.StreamReader, writer) -> None:
        """Half-close, then discard input until EOF or :data:`LINGER_S`."""
        writer.write_eof()
        reader.set_exception(None)  # the deadline's TimeoutError, if one fired
        timer = self._loop.call_later(LINGER_S, reader.set_exception, TimeoutError())
        with suppress(TimeoutError):  # at the bound, close on a client still sending
            while await reader.read(1 << 16):
                pass
        timer.cancel()

    async def _write_response(self, writer, response, keep_alive, http11) -> None:
        """Send one response with explicit length framing."""
        head = _VERSION[http11] + response.head + _CONNECTION[keep_alive]
        writer.writelines((head, response.body))  # no copy of the body on 3.12+
        if writer.transport.get_write_buffer_size():
            timer = self._loop.call_later(IDLE_TIMEOUT_S, writer.transport.abort)
            try:
                await writer.drain()
            finally:
                timer.cancel()


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
