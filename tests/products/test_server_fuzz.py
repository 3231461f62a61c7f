"""Byte-level fuzzing of the HTTP front end: hostile clients never win.

Every example talks raw bytes to a live :class:`ProductHTTPServer` over a
real socket and then checks the same five properties:

1. nothing unhandled reached the loop's exception handler;
2. no server connection ever buffered beyond its high-water mark (twice
   asyncio's ``StreamReader`` limit, which the server keeps as its head
   limit, plus the one ``recv`` that crossed it);
3. after a refusal (``400`` / ``408`` / ``413``) the server closed the
   connection, and no connection outlives its client;
4. every well-formed request pipelined *before* the garbage was answered
   correctly and in order;
5. a well-formed request on a *new* connection afterwards is served.

The deadlines are patched down to tens of milliseconds; nothing sleeps
for real seconds.  The tests that split well-formed requests run at the
server's own deadlines instead (:func:`real_deadlines`): there a piece that
arrives late is a scheduling delay on a busy machine, not a server fault,
and the client ends each conversation with EOF, so no deadline is waited
on.  Each client read is bounded, so a server that neither answers nor
closes fails the example instead of hanging the suite.
"""

import asyncio
import contextlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.products.server as server_module
from repro.products.server import ProductHTTPServer, _Connection, fetch
from repro.products.service import ProductService
from repro.products.store import ProductStore
from tests.products.conftest import exchange, make_field, make_product

#: asyncio's default StreamReader limit (the server's ``MAX_HEAD_BYTES``)
#: and the most one ``recv`` of a selector transport delivers.
STREAM_LIMIT, RECV_MAX = 64 * 1024, 256 * 1024
BUFFER_CAP = 2 * STREAM_LIMIT + RECV_MAX
REFUSALS = (400, 408, 413)
PATIENCE = 2.0
#: The server's own deadlines, read before any test patches them down.
DEADLINES = {"HEAD_TIMEOUT_S": server_module.HEAD_TIMEOUT_S,
             "IDLE_TIMEOUT_S": server_module.IDLE_TIMEOUT_S}

FUZZ = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

#: Well-formed requests and the status each must get.
VALID = [
    (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 200),
    (b"GET /v1/products/latest HTTP/1.1\r\nHost: t\r\nAccept: */*\r\n\r\n", 200),
    (b"GET /v1/products/latest/tiles/sst_nowcast/1/1 HTTP/1.1\r\n\r\n", 200),
    (b"GET /v1/products/1/fields/sst_nowcast?level=1 HTTP/1.1\r\nHost: t\r\n\r\n", 200),
    (b"GET /v1/products/7 HTTP/1.1\r\nHost: t\r\n\r\n", 503),
    (b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", 404),
    (b"PUT /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nabc", 405),
]


class WatchedConnection(_Connection):
    """A connection reporting to its :class:`Watched` server."""

    def connection_made(self, transport):
        self.server.active += 1
        self.server.transports.append(transport)
        super().connection_made(transport)

    def data_received(self, data):
        # What the buffer holds once ``data`` is appended, before any of it
        # is parsed off (a lingering connection appends nothing: an upper bound).
        self.server.peak_buffered = max(
            self.server.peak_buffered, len(self.buffer) + len(data)
        )
        super().data_received(data)

    def connection_lost(self, exc):
        super().connection_lost(exc)
        self.server.active -= 1


class Watched(ProductHTTPServer):
    """The server, remembering every connection it was handed."""

    def __init__(self, service):
        super().__init__(service)
        self.active = 0
        self.peak_buffered = 0
        self.transports = []

    def _connection(self):
        return WatchedConnection(self)


class Harness:
    """One loop, one live server, and the record of what went wrong on it."""

    def __init__(self, workdir):
        self.loop = asyncio.new_event_loop()
        self.loop_errors = []
        self.loop.set_exception_handler(lambda loop, ctx: self.loop_errors.append(ctx))
        self.server = Watched(ProductService(workdir))
        self.run(self.server.start())

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def close(self):
        self.run(self.server.stop())
        self.run(asyncio.sleep(0))
        self.loop.close()

    async def talk(self, chunks, **how):
        """:func:`exchange` with this harness's server."""
        return await exchange(self.server, *chunks, patience=PATIENCE, **how)

    async def settle(self):
        """Properties 1, 2, 3 (no connection outlives its client) and 5."""
        for _ in range(int(PATIENCE / 0.005)):
            if not self.server.active:
                break
            await asyncio.sleep(0.005)
        assert self.server.active == 0, "a connection outlived its client"
        assert all(t.is_closing() for t in self.server.transports)
        self.server.transports.clear()
        assert self.loop_errors == []
        assert self.server.peak_buffered <= BUFFER_CAP
        status, _, body = await fetch(self.server.host, self.server.port, "/healthz")
        assert (status, json.loads(body)["version"]) == (200, 1)
        status, _, _ = await fetch(self.server.host, self.server.port, "/v1/products/latest")
        assert status == 200


def responses(payload: bytes) -> list[tuple[int, dict, bytes]]:
    """Split the bytes a connection answered into ``(status, headers, body)``;
    fails on anything that is not a sequence of well-framed responses."""
    out = []
    while payload:
        head, sep, payload = payload.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head {head[:60]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version in ("HTTP/1.1", "HTTP/1.0")
        headers = dict(line.lower().split(": ", 1) for line in lines)
        length = int(headers["content-length"])
        assert len(payload) >= length, "truncated response body"
        out.append((int(status), headers, payload[:length]))
        payload = payload[length:]
    return out


def check_conversation(payload, expected=()):
    """Properties 3 (a refusal is the last word) and 4."""
    if payload is None:  # reset: the server closed while we were still sending
        return
    answers = responses(payload)
    statuses = [status for status, _, _ in answers]
    assert statuses[: len(expected)] == list(expected)[: len(statuses)]
    for k, (status, headers, _) in enumerate(answers):
        if status in REFUSALS:
            assert headers["connection"] == "close"
            assert k == len(answers) - 1, "the server answered past a refusal"


@pytest.fixture()
def harness(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "HEAD_TIMEOUT_S", 0.03, raising=False)
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.06, raising=False)
    store = ProductStore(tmp_path / "store")
    store.publish(make_product(0), {"sst_nowcast": make_field(0)})
    harness = Harness(store.workdir)
    with contextlib.closing(harness):
        yield harness


def real_deadlines(monkeypatch):
    """Undo the harness's short deadlines for a test that splits valid
    requests: a split must change no answer, however late a piece arrives."""
    for name, seconds in DEADLINES.items():
        monkeypatch.setattr(server_module, name, seconds)


garbage = st.one_of(
    st.binary(max_size=512),
    st.text(alphabet="GET POST/HTP1.:\r\n \tx-", max_size=200).map(str.encode),
    st.binary(max_size=64).map(lambda b: b + b"\r\n\r\n"),
)
pipeline = st.lists(st.sampled_from(VALID), max_size=4)


class TestFuzz:
    @FUZZ
    @given(blob=garbage, eof=st.booleans())
    def test_arbitrary_bytes(self, harness, blob, eof):
        async def example():
            check_conversation(await harness.talk([blob], eof=eof))
            await harness.settle()

        harness.run(example())

    @FUZZ
    @given(request=st.sampled_from(VALID), data=st.data())
    def test_truncated_head_held_open(self, harness, request, data):
        """The missing-deadline hole: a head that stops, a client that stays."""
        head_end = request[0].index(b"\r\n\r\n") + 3
        cut = data.draw(st.integers(1, head_end))

        async def example():
            payload = await harness.talk([request[0][:cut]])
            assert [s for s, _, _ in responses(payload)] == [408]
            check_conversation(payload)
            await harness.settle()

        harness.run(example())

    @FUZZ
    @given(requests=pipeline, blob=garbage, eof=st.booleans())
    def test_garbage_after_pipelined_requests(self, harness, requests, blob, eof):
        async def example():
            sent = b"".join(raw for raw, _ in requests) + blob
            payload = await harness.talk([sent], eof=eof)
            check_conversation(payload, [status for _, status in requests])
            if payload is not None:
                assert len(responses(payload)) >= len(requests)
            await harness.settle()

        harness.run(example())

    @FUZZ
    @given(requests=st.lists(st.sampled_from(VALID), min_size=1, max_size=3), data=st.data())
    def test_valid_requests_split_anywhere(self, harness, monkeypatch, requests, data):
        real_deadlines(monkeypatch)
        sent = b"".join(raw for raw, _ in requests)
        cuts = data.draw(st.lists(st.integers(0, len(sent)), max_size=6).map(sorted))
        chunks = [sent[a:b] for a, b in zip([0, *cuts], [*cuts, len(sent)])]

        async def example():
            payload = await harness.talk(chunks, eof=True)
            assert [s for s, _, _ in responses(payload)] == [s for _, s in requests]
            await harness.settle()

        harness.run(example())

    def test_one_request_split_at_every_byte(self, harness, monkeypatch):
        real_deadlines(monkeypatch)
        raw, status = VALID[1]

        async def example():
            for cut in range(1, len(raw)):
                payload = await harness.talk([raw[:cut], raw[cut:]], eof=True)
                assert [s for s, _, _ in responses(payload)] == [status], cut
            await harness.settle()

        harness.run(example())

    @FUZZ
    @given(
        count=st.integers(0, 400),
        name=st.sampled_from([b"X-Flood", b"Cookie", b"If-None-Match", b"Content-Length"]),
        value=st.binary(max_size=300).filter(lambda v: b"\r" not in v and b"\n" not in v),
    )
    def test_header_floods(self, harness, count, name, value):
        async def example():
            lines = b"".join(b"%s: %s\r\n" % (name, value) for _ in range(count))
            head = b"GET /v1/products/latest HTTP/1.1\r\n" + lines + b"\r\n"
            payload = await harness.talk([head], eof=True)
            check_conversation(payload)
            if payload is not None and count > server_module.MAX_HEADERS:
                assert [s for s, _, _ in responses(payload)] == [400]
            await harness.settle()

        harness.run(example())

    @FUZZ
    @given(
        length=st.one_of(
            st.integers(-10, 10**12).map(str),
            st.text(alphabet="0123456789+-ex \t", max_size=12),
            st.sampled_from(["", "٣", "²", "1_0", "9" * 6000]),
        ),
        body=st.integers(0, 8).map(lambda n: b"x" * (1 << 2 * n)),
        repeat=st.booleans(),
    )
    def test_lying_content_length(self, harness, length, body, repeat):
        """The unbounded-body hole: whatever the header claims, and whatever
        follows it, the reader's buffer stays under the cap."""
        async def example():
            header = b"Content-Length: " + length.encode("utf-8", "replace") + b"\r\n"
            head = b"GET /healthz HTTP/1.1\r\n" + header * (1 + repeat) + b"\r\n"
            payload = await harness.talk([head, body, VALID[0][0]])
            check_conversation(payload)
            if payload is not None:
                assert responses(payload), "neither answered nor refused"
            await harness.settle()

        harness.run(example())

    def test_huge_claimed_body_is_refused_not_buffered(self, harness):
        async def example():
            head = b"GET /healthz HTTP/1.1\r\nContent-Length: 10000000000\r\n\r\n"
            payload = await harness.talk([head] + [b"x" * (256 * 1024)] * 8)
            if payload is not None:
                assert [s for s, _, _ in responses(payload)] == [413]
            await harness.settle()

        harness.run(example())
        assert harness.server.peak_buffered <= BUFFER_CAP

    @FUZZ
    @given(requests=st.lists(st.sampled_from(VALID[:4]), min_size=1, max_size=8))
    def test_client_gone_mid_response(self, harness, requests):
        async def example():
            sent = b"".join(raw for raw, _ in requests)
            await harness.talk([sent], abort=True)
            await harness.settle()

        harness.run(example())
