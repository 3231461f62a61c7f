"""The asyncio HTTP front end over real sockets."""

import asyncio
import json

import pytest

from repro.products.server import ProductHTTPServer, fetch
from repro.products.service import ProductService
from repro.products.store import ProductStore
from tests.products.conftest import make_field, make_product


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


class TestServer:
    def test_binds_an_ephemeral_port(self, workdir):
        async def scenario(server):
            return server.port, server.url

        port, url = serve(workdir, scenario)
        assert port > 0
        assert url == f"http://127.0.0.1:{port}"

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
        ``readline`` raise before ``MAX_LINE_BYTES`` is compared; it is
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
