"""The asyncio HTTP front end over real sockets."""

import asyncio
import builtins
import gc
import json
import os
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.products.server as server_module
from repro.products.server import ProductHTTPServer, fetch
from repro.products.service import ProductService
from repro.products.store import ProductStore
from tests.products.conftest import exchange, make_field, make_product


@pytest.fixture()
def workdir(tmp_path):
    store = ProductStore(tmp_path / "store")
    store.publish(make_product(0), {"sst_nowcast": make_field(0)})
    return store.workdir


def serve(workdir, scenario):
    """Run one async scenario against a live server; returns its result."""

    async def runner():
        server = ProductHTTPServer(ProductService(workdir))
        async with server.serving():
            return await scenario(server)

    return asyncio.run(runner())


def status_of(payload: bytes) -> int:
    """Status code of the first response in ``payload``."""
    return int(payload.split(b" ", 2)[1])


class TestServer:
    def test_binds_an_ephemeral_port(self, workdir):
        async def scenario(server):
            status, _, _ = await fetch(server.host, server.port, "/healthz")
            return server.port, status

        port, status = serve(workdir, scenario)
        assert port > 0 and status == 200

    def test_healthz_and_latest_product(self, workdir):
        async def scenario(server):
            health = await fetch(server.host, server.port, "/healthz")
            product = await fetch(server.host, server.port, "/v1/products/latest")
            return health, product

        (hs, _, hbody), (ps, pheaders, pbody) = serve(workdir, scenario)
        assert hs == 200
        assert json.loads(hbody)["version"] == 1
        assert ps == 200
        assert pheaders["content-type"] == "application/json"
        assert int(pheaders["content-length"]) == len(pbody)
        assert json.loads(pbody)["version"] == 1

    def test_etag_revalidation_over_http(self, workdir):
        async def scenario(server):
            status, headers, _ = await fetch(
                server.host, server.port, "/v1/products/latest"
            )
            assert status == 200
            return await fetch(
                server.host,
                server.port,
                "/v1/products/latest",
                headers={"If-None-Match": headers["etag"]},
            )

        status, headers, body = serve(workdir, scenario)
        assert status == 304
        assert body == b""

    def test_keep_alive_connection_reuse(self, workdir):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                results = []
                for _ in range(3):
                    results.append(
                        await fetch(
                            server.host, server.port, "/healthz",
                            reader=reader, writer=writer,
                        )
                    )
                return results
            finally:
                writer.close()
                await writer.wait_closed()

        results = serve(workdir, scenario)
        assert [status for status, _, _ in results] == [200, 200, 200]
        assert all(h["connection"] == "keep-alive" for _, h, _ in results)

    def test_connection_close_honoured(self, workdir):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            payload = await reader.read()  # server closes after one response
            writer.close()
            await writer.wait_closed()
            return payload

        payload = serve(workdir, scenario)
        assert payload.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in payload

    def test_malformed_request_gets_400(self, workdir):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"this is not http\r\n\r\n")
            await writer.drain()
            payload = await reader.read()
            writer.close()
            await writer.wait_closed()
            return payload

        payload = serve(workdir, scenario)
        assert payload.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /" + b"a" * (65 * 1024) + b" HTTP/1.1\r\nHost: t\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"a" * (65 * 1024) + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_line_beyond_stream_limit_gets_400(self, workdir, head):
        """A line past asyncio's own 64 KiB ``StreamReader`` limit makes
        ``readuntil`` raise before ``MAX_LINE_BYTES`` is compared; it is
        answered like any other malformed head, and the server lives on."""

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(head)
            await writer.drain()
            payload = await reader.read()  # to EOF: the server closed
            writer.close()
            await writer.wait_closed()
            status, _, _ = await fetch(server.host, server.port, "/healthz")
            return payload, status

        payload, next_status = serve(workdir, scenario)
        assert payload.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in payload
        assert next_status == 200

    def test_concurrent_clients(self, workdir):
        async def scenario(server):
            async def one(i):
                return await fetch(
                    server.host, server.port,
                    "/v1/products/latest/fields/sst_nowcast?level=1",
                )

            return await asyncio.gather(*(one(i) for i in range(16)))

        results = serve(workdir, scenario)
        bodies = {body for _, _, body in results}
        assert all(status == 200 for status, _, _ in results)
        assert len(bodies) == 1  # every client saw the same immutable version

    def test_double_start_rejected(self, workdir):
        async def scenario(server):
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            return True

        assert serve(workdir, scenario)


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n"


class TestHostileClients:
    """The two holes of the one-path server: no deadline, no body cap."""

    @pytest.fixture(autouse=True)
    def short_deadlines(self, monkeypatch):
        # raising=False: at a commit without deadlines these tests must fail
        # on the server's behaviour, not on a missing constant.
        monkeypatch.setattr(server_module, "HEAD_TIMEOUT_S", 0.05, raising=False)
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.15, raising=False)

    def test_partial_head_gets_408_and_is_closed(self, workdir):
        async def scenario(server):
            return await exchange(server, b"GET /healthz HTT")

        payload = serve(workdir, scenario)
        assert payload.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"Connection: close" in payload

    def test_a_trickle_does_not_extend_the_head_deadline(self, workdir):
        """One byte every 10 ms is steady progress and still meets the deadline;
        the bytes it sends after the 408 do not reset the 408 away."""

        async def scenario(server):
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            started = loop.time()
            answer = asyncio.ensure_future(asyncio.wait_for(reader.read(), 2.0))
            for byte in HEALTHZ:  # 0.35 s of it, if let
                if answer.done():
                    break
                writer.write(bytes([byte]))
                await asyncio.sleep(0.01)
            payload = await answer
            writer.close()
            return payload, loop.time() - started

        payload, elapsed = serve(workdir, scenario)
        assert status_of(payload) == 408
        assert elapsed < 0.3

    def test_idle_connection_is_closed_without_an_answer(self, workdir):
        async def scenario(server):
            silent = await exchange(server)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            served = await fetch(
                server.host, server.port, "/healthz", reader=reader, writer=writer
            )
            after = await asyncio.wait_for(reader.read(), 2.0)  # idle past the gap
            writer.close()
            return silent, served[0], after

        assert serve(workdir, scenario) == (b"", 200, b"")

    def test_stalled_body_gets_408(self, workdir):
        async def scenario(server):
            return await exchange(server, HEALTHZ + b"Content-Length: 10\r\n\r\nabc")

        assert status_of(serve(workdir, scenario)) == 408

    def test_oversized_content_length_gets_413_before_any_body(self, workdir):
        async def scenario(server):
            head = HEALTHZ + b"Content-Length: 10000000000\r\n\r\n"
            return await exchange(server, head, b"x" * 65536)

        payload = serve(workdir, scenario)
        assert payload.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in payload

    @pytest.mark.parametrize(
        "lines",
        [
            b"Content-Length: twelve\r\n",
            b"Content-Length: -1\r\n",
            b"Content-Length: +5\r\n",
            b"Content-Length: 1e3\r\n",
            b"Content-Length: 0x10\r\n",
            b"Content-Length: \xb2\r\n",
            b"Content-Length: " + b"9" * 5000 + b"\r\n",
            b"Content-Length: 5\r\nContent-Length: 6\r\n",
            b"Content-Length:\r\n",
            b"Transfer-Encoding: chunked\r\n",
        ],
        ids=[
            "word",
            "negative",
            "plus",
            "exponent",
            "hex",
            "superscript",
            "5000-digits",
            "conflicting",
            "empty",
            "chunked",
        ],
    )
    def test_unusable_framing_gets_400_and_is_not_read_as_a_request(
        self, workdir, lines
    ):
        async def scenario(server):
            smuggled = b"GET /v1/products/latest HTTP/1.1\r\nHost: t\r\n\r\n"
            return await exchange(server, HEALTHZ + lines + b"\r\n" + smuggled)

        payload = serve(workdir, scenario)
        assert payload.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert payload.count(b"HTTP/1.") == 1  # the body was not answered

    def test_small_body_is_drained_and_framing_survives(self, workdir):
        async def scenario(server):
            framed = b"Content-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
            return await exchange(
                server, HEALTHZ + framed + HEALTHZ + b"Connection: close\r\n\r\n"
            )

        payload = serve(workdir, scenario)
        assert payload.count(b"HTTP/1.1 200 OK") == 2

    @pytest.mark.parametrize(
        "head, eof",
        [
            (b"GET /healthz HTTP/1.1\nHost: t\n\n", True),
            (b"GET /healthz HTTP/1.1\nHost: t\n\n", False),
            (b"GET /healthz HTTP/1.1\r\nHost: t\nX: y\r\n\r\n", False),
            (b"GET /healthz HTTP/1.1\r\nHost: t\rX: y\r\n\r\n", False),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", False),
            (b"GET /healthz HTTP/1.1\r\n\rX: y\r\n\r\n", False),
            (b"GET /healthz HTTP/1.1\r\nHost: t\nX: y", False),
            (b"GET /healthz HTTP/1.1\r\nHost: t\rX: y", False),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\n", False),
        ],
        ids=[
            "bare-lf-then-eof",
            "bare-lf-open",
            "lone-lf",
            "lone-cr",
            "no-colon",
            "cr-no-lf",
            "lone-lf-unended-open",
            "lone-cr-unended-open",
            "lf-after-crlf-unended-open",
        ],
    )
    def test_heads_are_crlf_framed(self, workdir, monkeypatch, head, eof):
        """The decision of the module docstring: bare LF is not a line end,
        and a bare-LF client is refused at once, not at the deadline."""
        monkeypatch.setattr(server_module, "HEAD_TIMEOUT_S", 5.0)

        async def scenario(server):
            loop = asyncio.get_running_loop()
            started = loop.time()
            return await exchange(server, head, eof=eof), loop.time() - started

        payload, elapsed = serve(workdir, scenario)
        assert status_of(payload) == 400
        assert b"Connection: close" in payload
        assert elapsed < 1.0

    def test_header_count_cap(self, workdir):
        def head(n):
            lines = b"".join(b"X-%d: v\r\n" % k for k in range(n))
            return b"GET /healthz HTTP/1.1\r\n" + lines + b"Connection: close\r\n\r\n"

        async def scenario(server):
            return (
                await exchange(server, head(server_module.MAX_HEADERS - 1)),
                await exchange(server, head(server_module.MAX_HEADERS)),
            )

        allowed, refused = serve(workdir, scenario)
        assert status_of(allowed) == 200
        assert status_of(refused) == 400


    def test_a_client_that_stops_reading_is_aborted(self, tmp_path):
        """Ten pipelined requests for a ~1.5 MB body and not one byte read: the
        responses back up in the server until the idle deadline cuts it off."""
        store = ProductStore(tmp_path / "big", tile_size=64, levels=1)
        store.publish(make_product(0), {"sst_nowcast": make_field(0, (256, 256))})
        request = b"GET /v1/products/latest/fields/sst_nowcast HTTP/1.1\r\nHost: t\r\n\r\n"

        async def scenario(server):
            _, _, body = await fetch(
                server.host, server.port, "/v1/products/latest/fields/sst_nowcast"
            )
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(request * 10)
            await writer.drain()
            await asyncio.sleep(0.4)  # two and a half idle deadlines
            received = 0
            try:
                while chunk := await asyncio.wait_for(reader.read(1 << 20), 2.0):
                    received += len(chunk)
            except ConnectionResetError:
                pass
            writer.close()
            return len(body), received

        body_bytes, received = serve(store.workdir, scenario)
        assert body_bytes > 1_000_000
        assert received < 10 * body_bytes  # cut off, not served at leisure


class TestHitPathOverHTTP:
    TARGETS = [
        "/v1/products/latest",
        "/v1/products/latest/fields/sst_nowcast?level=1",
        "/v1/products/latest/tiles/sst_nowcast/0/0",
        "/v1/products/1/tiles/sst_nowcast/1/1",
    ]

    def test_hot_requests_do_no_file_io_on_the_loop(self, workdir, monkeypatch):
        """Warm up (misses, on the executor), then 200 hits with every way of
        opening a file made to raise on the loop's thread.  Among them, the
        first request of each other tile: a cold body on a warm snapshot is
        rendered on the loop, and only the one request that loaded the
        snapshot ever reached the executor."""
        violations, executor_saw = [], []
        cold = [f"/v1/products/latest/tiles/sst_nowcast/{tj}/2" for tj in range(3)]

        class Spy(ProductService):
            def handle(self, method, target, headers=None):
                executor_saw.append(target)
                return super().handle(method, target, headers)

        def loop_only_guard(real, name):
            def guarded(*args, **kwargs):
                if threading.get_ident() == loop_thread:
                    violations.append(name)
                    raise AssertionError(f"{name} called on the event loop")
                return real(*args, **kwargs)

            return guarded

        monkeypatch.setattr(Path, "read_text", loop_only_guard(Path.read_text, "read_text"))
        monkeypatch.setattr(builtins, "open", loop_only_guard(builtins.open, "open"))
        monkeypatch.setattr(os, "open", loop_only_guard(os.open, "os.open"))
        monkeypatch.setattr(np, "load", loop_only_guard(np.load, "numpy.load"))
        loop_thread = None

        async def scenario(server):
            nonlocal loop_thread
            reader, writer = await asyncio.open_connection(server.host, server.port)
            etag, statuses = None, []
            targets = self.TARGETS + cold
            for k in range(len(self.TARGETS) + 200):
                if k == len(self.TARGETS):
                    loop_thread = threading.get_ident()  # warm from here on
                headers = {"If-None-Match": etag} if k % 5 == 4 else None
                status, response_headers, _ = await fetch(
                    server.host, server.port, targets[k % len(targets)],
                    headers=headers, reader=reader, writer=writer,
                )
                etag = response_headers["etag"]
                statuses.append(status)
            writer.close()
            return statuses

        async def runner():
            server = ProductHTTPServer(Spy(workdir))
            async with server.serving():
                return await scenario(server)

        statuses = asyncio.run(runner())
        assert violations == []
        assert set(statuses) == {200, 304} and statuses.count(304) >= 40
        assert executor_saw == [self.TARGETS[0]]

    def test_cache_off_sends_every_request_to_the_executor(self, workdir):
        calls = {"cached": 0, "handle": []}

        class Spy(ProductService):
            def handle(self, *args):
                calls["handle"].append(threading.current_thread().name)
                return super().handle(*args)

        async def scenario(server):
            for _ in range(3):
                for target in self.TARGETS:
                    status, _, _ = await fetch(server.host, server.port, target)
                    assert status == 200
            return threading.current_thread().name

        async def runner():
            server = ProductHTTPServer(Spy(workdir, cache_size=0))
            async with server.serving():
                return await scenario(server)

        loop_thread = asyncio.run(runner())
        assert len(calls["handle"]) == 3 * len(self.TARGETS)
        assert loop_thread not in calls["handle"]

    def test_latest_is_never_older_than_a_publish_that_returned(self, tmp_path):
        store = ProductStore(tmp_path / "store", retain=4)
        store.publish(make_product(0), {"sst_nowcast": make_field(0)})

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)

            async def latest():
                status, headers, body = await fetch(
                    server.host, server.port, "/v1/products/latest",
                    reader=reader, writer=writer,
                )
                return status, headers, body

            assert (await latest())[0] == 200
            for round_ in range(100):
                for _ in range(1 + (round_ % 3 == 2)):  # sometimes two publishes
                    version = await asyncio.to_thread(
                        store.publish,
                        make_product(round_),
                        {"sst_nowcast": make_field(round_)},
                    )
                status, headers, body = await latest()
                assert status == 200
                assert int(headers["x-product-version"]) == version
                assert json.loads(body)["version"] == version
                status, headers, _ = await latest()  # and the hit agrees
                assert int(headers["x-product-version"]) == version
            # HEAD torn, then gone: 503 exactly as a cold read answers, and the
            # version comes back with the file.
            good = await asyncio.to_thread(store.head_path.read_text)
            await asyncio.to_thread(store.head_path.write_text, good[:20])
            assert (await latest())[0] == 503
            await asyncio.to_thread(store.head_path.unlink)
            assert (await latest())[0] == 503
            await asyncio.to_thread(store.head_path.write_text, good)
            status, headers, _ = await latest()
            assert (status, int(headers["x-product-version"])) == (200, version)
            writer.close()
            return version

        assert serve(store.workdir, scenario) >= 100


class TestOneProtocolPerConnection:
    """What the per-connection protocol promises beyond the wire format."""

    def test_pipelined_requests_behind_an_executor_miss_keep_order_and_bodies(
        self, workdir
    ):
        """A cold ``latest`` goes to the executor, held there until a tile and
        an overview of the warm version (answerable from memory at once) and
        ``healthz`` closing the connection have arrived behind it.  Each body
        is the service's own answer to its own target, in the order sent."""
        targets = [
            "/v1/products/latest",
            "/v1/products/1/tiles/sst_nowcast/1/1",
            "/v1/products/1/fields/sst_nowcast?level=1",
            "/healthz",
        ]
        requests = [
            b"GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n"
            % (target.encode(), b"Connection: close\r\n" if k == 3 else b"")
            for k, target in enumerate(targets)
        ]
        entered, release = threading.Event(), threading.Event()

        class Held(ProductService):
            def handle(self, method, target, headers=None):
                if target == targets[0]:
                    entered.set()
                    release.wait(2.0)
                return super().handle(method, target, headers)

        async def runner():
            server = ProductHTTPServer(Held(workdir))
            async with server.serving():
                await fetch(server.host, server.port, "/v1/products/1")  # warm v1
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(requests[0])
                assert await asyncio.to_thread(entered.wait, 2.0)
                writer.write(b"".join(requests[1:]))
                await asyncio.sleep(0.05)  # the later requests are buffered
                release.set()
                payload = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                return payload

        payload = asyncio.run(runner())
        reference = ProductService(workdir)
        answers = []
        while payload:
            head, _, payload = payload.partition(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            answers.append((status_of(head), payload[:length]))
            payload = payload[length:]
        expected = [reference.handle("GET", target) for target in targets]
        assert answers == [(r.status, r.body) for r in expected]
        assert [json.loads(body)["version"] for _, body in answers] == [1] * 4
        assert [sorted(json.loads(body))[:2] for _, body in answers] == [
            ["bulletin", "checksum"],
            ["field", "summary"],
            ["domain", "field"],
            ["status", "version"],
        ]

    def test_keep_alive_steady_state_schedules_no_timer_per_request(self, workdir):
        """200 hot requests on one keep-alive connection: a constant number of
        ``loop.call_at`` (``call_later`` goes through it), not one or two per
        request -- the deadline moves later without a new timer."""

        async def scenario(server):
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            target = "/v1/products/latest/tiles/sst_nowcast/0/0"
            for _ in range(3):  # warm: the snapshot load and the first render
                await fetch(server.host, server.port, target, reader=reader, writer=writer)
            scheduled, call_at = [], loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                scheduled.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting_call_at
            try:
                statuses = [
                    (await fetch(
                        server.host, server.port, target, reader=reader, writer=writer
                    ))[0]
                    for _ in range(200)
                ]
            finally:
                del loop.call_at
            writer.close()
            return statuses, len(scheduled)

        statuses, scheduled = serve(workdir, scenario)
        assert statuses == [200] * 200
        assert scheduled <= 2

    def test_a_stopped_server_leaves_no_cycle_holding_the_service(
        self, workdir, monkeypatch
    ):
        """Keep-alive, pipelined, refused and timed-out connections with the
        cyclic GC off: once the server has stopped and its loop closed, the
        service is freed by reference counting alone -- no connection, and
        no deadline of one, is left in a cycle that reaches it."""
        monkeypatch.setattr(server_module, "HEAD_TIMEOUT_S", 0.05)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            for target in ("/v1/products/latest", "/healthz", "/v1/products/latest"):
                await fetch(server.host, server.port, target, reader=reader, writer=writer)
            writer.close()
            await writer.wait_closed()
            statuses = [
                status_of(await exchange(server, HEALTHZ + b"\r\n" + HEALTHZ + b"\r\n", eof=True)),
                status_of(await exchange(server, b"not http\r\n\r\n")),
                status_of(await exchange(server, b"GET /healthz HTT")),
            ]
            await asyncio.sleep(0.05)  # the last connections see their close
            return statuses

        async def runner(service):
            server = ProductHTTPServer(service)
            async with server.serving():
                return await scenario(server)

        gc.collect()
        gc.disable()
        try:
            service = ProductService(workdir)
            alive = weakref.ref(service)
            statuses = asyncio.run(runner(service))
            del service
            assert alive() is None, "a reference cycle still holds the service"
        finally:
            gc.enable()
        assert statuses == [200, 400, 408]
