"""Asyncio HTTP front end for the forecast-product service.

Stdlib-only (``asyncio`` + a minimal HTTP/1.1 implementation): one
:class:`ProductHTTPServer` wraps a
:class:`~repro.products.service.ProductService` and speaks just enough
HTTP for load generators, curl and browsers -- GET requests,
persistent connections (keep-alive by default, honoured until the
client sends ``Connection: close``), ``Content-Length`` framing and the
service's ETag/503 semantics passed straight through.

The request handler never runs the service on the event loop: a
cache-missing request costs a small-file read plus an npz decode, which
would stall every other connection for its duration (REP010).  Requests
are offloaded to a single-worker thread pool instead -- one worker
because the service serializes on its cache lock anyway, so extra
threads would only add contention.  Heavy deployments shard by running
several server processes against the same immutable store -- readers
never lock, so processes scale horizontally.

Malformed requests are answered with ``400`` and the connection is
closed; oversized request lines or header blocks (> 16 KiB) are
rejected the same way rather than buffered without bound.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager

from repro.products.service import ProductService, ServiceResponse

#: Upper bound on one request line or header line (DoS hygiene).
MAX_LINE_BYTES = 16 * 1024
#: Upper bound on the number of request headers read per request.
MAX_HEADERS = 100


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
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="product-service"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @asynccontextmanager
    async def serving(self):
        """``async with server.serving():`` start/stop bracketing."""
        await self.start()
        try:
            yield self
        finally:
            await self.stop()

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until close or error."""
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError:
                    # A line beyond StreamReader's own 64 KiB limit:
                    # readline raises before MAX_LINE_BYTES is compared.
                    request = "malformed"
                if request is None:
                    break  # clean EOF between requests
                if request == "malformed":
                    await self._write_response(
                        writer,
                        ServiceResponse(status=400, body=b'{"error": "malformed request"}'),
                        keep_alive=False,
                        http11=True,
                    )
                    break
                method, target, http11, headers = request
                response = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self.service.handle, method, target, headers
                )
                keep_alive = (
                    http11
                    and headers.get("connection", "keep-alive").lower() != "close"
                )
                await self._write_response(
                    writer, response, keep_alive=keep_alive, http11=http11
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request head; None on EOF, ``"malformed"`` on junk."""
        line = await reader.readline()
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            return "malformed"
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return "malformed"
        method, target, version = parts
        http11 = version == "HTTP/1.1"
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            raw = await reader.readline()
            if not raw or len(raw) > MAX_LINE_BYTES:
                return "malformed"
            text = raw.decode("latin-1").rstrip("\r\n")
            if not text:
                break
            name, sep, value = text.partition(":")
            if not sep:
                return "malformed"
            headers[name.strip().lower()] = value.strip()
        else:
            return "malformed"
        length = headers.get("content-length", "0")
        if length.isdigit() and int(length) > 0:
            # GETs should not carry bodies, but drain one to keep the
            # connection framing intact for the next request.
            await reader.readexactly(int(length))
        return method, target, http11, headers

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: ServiceResponse,
        keep_alive: bool,
        http11: bool,
    ) -> None:
        """Serialize one response with explicit length framing."""
        version = "HTTP/1.1" if http11 else "HTTP/1.0"
        lines = [f"{version} {response.status} {response.reason}"]
        for name, value in response.headers:
            lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(response.body)}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + response.body)
        await writer.drain()


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
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1])
        response_headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            text = raw.decode("latin-1").rstrip("\r\n")
            if not text:
                break
            name, _, value = text.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return status, response_headers, body
    finally:
        if own_connection:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
