"""The service read path: routing, ETags, caching, graceful degradation."""

import json

import numpy as np
import pytest

import repro.products.service as service_module
from repro.products.service import ProductService, ServiceResponse
from repro.products.store import ProductSnapshot, ProductStore
from repro.products.tiles import TiledField
from repro.telemetry.clock import FakeClock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import TraceRecorder
from tests.products.conftest import make_field, make_product


@pytest.fixture()
def store(tmp_path):
    return ProductStore(tmp_path / "store", tile_size=8, levels=2)


@pytest.fixture()
def published(store):
    field = make_field(1)
    store.publish(make_product(0), {"sst_nowcast": field, "sst_sigma": np.abs(field)})
    return store


def get(service, target, **headers):
    return service.handle("GET", target, headers)


class TestRouting:
    def test_non_get_rejected(self, published):
        service = ProductService(published.workdir)
        response = service.handle("POST", "/v1/products/latest")
        assert response.status == 405

    def test_unknown_paths_404(self, published):
        service = ProductService(published.workdir)
        for target in (
            "/nope",
            "/v1/products",
            "/v1/products/vABC",
            "/v1/products/latest/fields",
            "/v1/products/latest/tiles/sst_nowcast/0",
            "/v1/products/latest/tiles/sst_nowcast/x/y",
            "/v1/products/latest/fields/sst_nowcast?level=abc",
        ):
            assert get(service, target).status == 404, target

    def test_healthz_reports_version(self, store):
        service = ProductService(store.workdir)
        body = json.loads(get(service, "/healthz").body)
        assert body == {"status": "ok", "version": None}
        store.publish(make_product(), {"sst_nowcast": make_field()})
        body = json.loads(get(service, "/healthz").body)
        assert body["version"] == 1


class TestResources:
    def test_product_manifest_and_bulletin(self, published):
        service = ProductService(published.workdir)
        response = get(service, "/v1/products/latest")
        assert response.status == 200
        assert response.header("Content-Type") == "application/json"
        assert response.header("X-Product-Version") == "1"
        body = json.loads(response.body)
        assert body["version"] == 1
        assert set(body["fields"]) == {"sst_nowcast", "sst_sigma"}
        assert "ESSE forecast bulletin" in body["bulletin"]
        assert body["product"] == make_product(0).to_dict()

    def test_field_overview_levels(self, published):
        service = ProductService(published.workdir)
        full = json.loads(
            get(service, "/v1/products/1/fields/sst_nowcast").body
        )
        assert full["shape"] == [20, 24]
        coarse = json.loads(
            get(service, "/v1/products/1/fields/sst_nowcast?level=2").body
        )
        assert coarse["shape"] == [5, 6]
        # land NaNs serialize as nulls, wet cells as floats
        assert full["values"][0][0] is None
        assert isinstance(full["values"][10][10], float)

    def test_tile_values_match_the_stored_field(self, published):
        service = ProductService(published.workdir)
        body = json.loads(
            get(service, "/v1/products/latest/tiles/sst_nowcast/1/1").body
        )
        expected = make_field(1)[8:16, 8:16]
        got = np.array(
            [[np.nan if v is None else v for v in row] for row in body["values"]]
        )
        np.testing.assert_allclose(got, expected)
        assert body["summary"]["count"] == int(np.sum(~np.isnan(expected)))

    def test_every_body_matches_the_per_element_encoder_byte_for_byte(
        self, store, monkeypatch
    ):
        """The list-speed encoder against the one it replaced, on every route
        of a field holding the floats whose text is easiest to get wrong."""

        def per_element_json(array):  # the encoder before ``tolist``
            rows = np.asarray(array, dtype=np.float64)
            return [[None if np.isnan(v) else float(v) for v in row] for row in rows]

        field = make_field(3)
        field[10, :11] = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 0.1, 1e16, 1e22, -1e22, 1.0]
        with np.errstate(invalid="ignore"):  # inf - inf in the tile statistics
            store.publish(make_product(0), {"sst_nowcast": field, "sst_sigma": np.abs(field)})
        targets = [LATEST, "/v1/products/1"]
        tiles = [(tj, ti) for tj in range(3) for ti in range(3)]
        for name in ("sst_nowcast", "sst_sigma"):
            targets += [f"{LATEST}/fields/{name}?level={level}" for level in range(3)]
            targets += [f"/v1/products/1/tiles/{name}/{tj}/{ti}" for tj, ti in tiles]
        fast = ProductService(store.workdir)
        got = [fast.handle("GET", target) for target in targets]
        monkeypatch.setattr(service_module, "_array_json", per_element_json)
        reference = ProductService(store.workdir)
        for target, response in zip(targets, got):
            want = reference.handle("GET", target)
            assert response.status == 200, target
            assert (response.head, response.body) == (want.head, want.body), target
        assert b"-0.0, Infinity, -Infinity, 5e-324, -5e-324, 0.1, 1e+16, 1e+22" in got[2].body

    def test_loaded_snapshot_renders_what_in_memory_tiling_renders(self, store):
        """A snapshot read from its file against the same fields tiled in
        memory: every array's dtype and bits, and every product, field and
        tile response, head and body."""
        fields = {"sst_nowcast": make_field(0), "ragged": make_field(1, (37, 29))}
        fields["ragged"][:, :9] = np.nan  # whole all-land tiles
        product = make_product(4)
        store.publish(product, fields)
        service = ProductService(store.workdir)
        loaded = service.reader.fetch()
        tiled = {
            name: TiledField(name, data, tile_size=store.tile_size, levels=store.levels)
            for name, data in sorted(fields.items())
        }
        header = {"cycle_index": 4, "fields": {n: f.meta() for n, f in tiled.items()}}
        memory = ProductSnapshot(1, product, tiled, header, loaded.checksum)
        targets = [LATEST]
        for name, field in tiled.items():
            for key, array in field.arrays().items():
                stored = loaded.fields[name].arrays()[key]
                assert (stored.dtype, stored.shape) == (array.dtype, array.shape), key
                assert stored.tobytes() == array.tobytes(), key
            targets += [f"{LATEST}/fields/{name}?level={lod}" for lod in range(3)]
            n_tj, n_ti = field.tile_grid
            targets += [
                f"{LATEST}/tiles/{name}/{tj}/{ti}" for tj in range(n_tj) for ti in range(n_ti)
            ]
        for target in targets:
            route = service_module._parse_target(target)
            want = service._render(route, memory)
            got = service._render(route, loaded)
            assert want.status == 200, target
            assert (got.status, got.head, got.body) == (200, want.head, want.body), target

    def test_unknown_field_and_bad_level_404(self, published):
        service = ProductService(published.workdir)
        missing = get(service, "/v1/products/latest/fields/salinity")
        assert missing.status == 404
        assert json.loads(missing.body)["fields"] == ["sst_nowcast", "sst_sigma"]
        assert get(service, "/v1/products/latest/fields/sst_nowcast?level=9").status == 404
        assert get(service, "/v1/products/latest/tiles/sst_nowcast/9/9").status == 404


class TestValidationAndDegradation:
    def test_etag_revalidation_304(self, published):
        service = ProductService(published.workdir)
        first = get(service, "/v1/products/latest")
        etag = first.header("ETag")
        assert etag.startswith('"v1-')
        revalidated = get(service, "/v1/products/latest", **{"If-None-Match": etag})
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.header("ETag") == etag

    def test_etag_changes_across_versions(self, published):
        service = ProductService(published.workdir)
        old = get(service, "/v1/products/latest").header("ETag")
        published.publish(make_product(1), {"sst_nowcast": make_field(2)})
        fresh = get(service, "/v1/products/latest")
        assert fresh.status == 200
        assert fresh.header("ETag") != old
        # stale ETag no longer revalidates
        assert get(service, "/v1/products/latest", **{"If-None-Match": old}).status == 200

    def test_503_before_first_publish(self, store):
        service = ProductService(store.workdir)
        response = get(service, "/v1/products/latest")
        assert response.status == 503
        assert response.header("Retry-After") == "1"

    def test_503_while_future_version_publishes(self, published):
        service = ProductService(published.workdir)
        response = get(service, "/v1/products/99")
        assert response.status == 503
        assert "still publishing" in json.loads(response.body)["error"]

    def test_500_past_the_retry_bound(self, published):
        published.head_path.write_text("permanently corrupt")
        service = ProductService(published.workdir, max_unreadable_reads=1)
        response = get(service, "/v1/products/latest")
        assert response.status == 500
        assert "retry bound" in json.loads(response.body)["error"]


class TestCachingAndTelemetry:
    def test_response_cache_hits_on_repeat(self, published):
        reg = MetricsRegistry()
        service = ProductService(published.workdir, registry=reg)
        first = get(service, "/v1/products/latest")
        second = get(service, "/v1/products/latest")
        assert first.body == second.body
        counters = reg.snapshot()["counters"]
        assert counters["product_cache_hits{cache=responses}"] == 1.0
        assert counters["product_cache_hits{cache=snapshots}"] >= 1.0

    def test_cache_off_serves_identical_bodies(self, published):
        cached = ProductService(published.workdir)
        uncached = ProductService(published.workdir, cache_size=0)
        target = "/v1/products/latest/fields/sst_sigma?level=1"
        assert get(cached, target).body == get(uncached, target).body
        assert get(uncached, target).body == get(uncached, target).body

    def test_request_metrics_and_spans(self, published):
        reg = MetricsRegistry()
        clock = FakeClock()
        recorder = TraceRecorder(clock=clock)
        service = ProductService(published.workdir, registry=reg, telemetry=recorder)
        get(service, "/v1/products/latest")
        get(service, "/nope")
        snap = reg.snapshot()
        assert snap["counters"]["product_requests{route=product,status=200}"] == 1.0
        assert snap["counters"]["product_requests{route=unknown,status=404}"] == 1.0
        assert snap["histograms"]["product_request_seconds{route=product}"]["count"] == 1
        spans = [s.name for s in recorder.spans()]
        assert "product_request" in spans

    def test_response_dataclass_helpers(self):
        response = ServiceResponse(status=503, headers=(("Retry-After", "1"),))
        assert response.reason == "Service Unavailable"
        assert response.header("retry-after") == "1"


LATEST = "/v1/products/latest"
TILE = LATEST + "/tiles/sst_nowcast/1/1"
FIELD = LATEST + "/fields/sst_sigma?level=1"


def file_reads(monkeypatch, call):
    """``(result, how many files call() read)``: read_text, open, numpy.load."""
    import builtins
    from pathlib import Path

    reads = []

    def spy(real):
        def wrapper(*args, **kwargs):
            reads.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", spy(Path.read_text))
        patch.setattr(Path, "open", spy(Path.open))
        patch.setattr(builtins, "open", spy(builtins.open))
        patch.setattr(np, "load", spy(np.load))
        return call(), len(reads)


class TestHitPath:
    """``cached`` is ``handle`` minus everything that opens a file."""

    def warm(self, published, **kwargs):
        service = ProductService(published.workdir, **kwargs)
        for target in (LATEST, TILE, FIELD, "/v1/products/1"):
            assert service.handle("GET", target).status == 200
        return service

    def test_cached_equals_handle_for_every_answer_from_memory(
        self, published, monkeypatch
    ):
        service = self.warm(published)
        etag = {"if-none-match": service.handle("GET", LATEST).header("ETag")}
        requests = [
            ("GET", LATEST, None, 200),
            ("GET", TILE, None, 200),
            ("GET", FIELD, None, 200),
            ("GET", "/v1/products/1", None, 200),
            ("get", "/v1/products/1/tiles/sst_nowcast/1/1", None, 200),
            ("GET", LATEST, etag, 304),
            ("GET", TILE, etag, 304),
            ("GET", "/v1/products/1/fields/sst_sigma?level=1", etag, 304),
            ("GET", LATEST, {"if-none-match": '"v0-stale"'}, 200),
            ("GET", "/nope", None, 404),
            ("GET", "/v1/products/latest/tiles/sst_nowcast/x/y", etag, 404),
            ("POST", LATEST, None, 405),
            ("DELETE", "/nope", etag, 405),
        ]
        for method, target, headers, status in requests:
            fast = service.cached(method, target, headers)
            slow, reads = file_reads(
                monkeypatch, lambda: service.handle(method, target, headers)
            )
            assert fast is not None, (method, target)
            assert (fast, fast.head) == (slow, slow.head), (method, target)
            assert fast.status == status and fast.route == slow.route
            assert reads == 0, (method, target)

    @pytest.mark.parametrize(
        "case",
        [
            "cold-snapshot",
            "cold-body",
            "changed-head",
            "cache-off",
            "healthz",
            "bad-field",
            "future-version",
            "head-gone",
        ],
    )
    def test_cached_is_none_when_the_answer_is_not_in_memory(
        self, published, monkeypatch, case
    ):
        """None exactly when a file must be read.  ``cold-body`` and
        ``bad-field`` are the other side of that line: their snapshot is
        warm, so ``cached`` renders them, opening nothing."""
        target, status = TILE, 200
        if case == "cold-snapshot":
            service = ProductService(published.workdir)
        elif case == "cache-off":
            service = self.warm(published, cache_size=0)
        else:
            service = self.warm(published)
        if case == "cold-body":
            target = LATEST + "/tiles/sst_nowcast/0/0"
        elif case == "changed-head":
            published.publish(make_product(1), {"sst_nowcast": make_field(2)})
        elif case == "healthz":
            target = "/healthz"
        elif case == "bad-field":
            target, status = LATEST + "/fields/salinity", 404
        elif case == "future-version":
            target, status = "/v1/products/99", 503
        elif case == "head-gone":
            published.head_path.unlink()
            status = 503
        if case in ("cold-body", "bad-field"):
            response, reads = file_reads(monkeypatch, lambda: service.cached("GET", target))
            assert (response.status, reads) == (status, 0)
            assert response == ProductService(published.workdir).handle("GET", target)
            return
        assert service.cached("GET", target) is None
        response, reads = file_reads(monkeypatch, lambda: service.handle("GET", target))
        assert response.status == status
        assert reads > 0

    def test_a_none_leaves_no_trace(self, published):
        """A miss is counted once -- by the ``handle`` that does its work."""
        reg = MetricsRegistry()
        recorder = TraceRecorder(clock=FakeClock())
        service = ProductService(published.workdir, registry=reg, telemetry=recorder)
        for _ in range(3):
            assert service.cached("GET", TILE) is None
            assert service.cached("GET", "/healthz") is None
        assert not any(reg.snapshot()["counters"].values())
        assert recorder.spans() == ()
        # Warm snapshot, changed HEAD: the snapshot is not looked up either.
        service.handle("GET", LATEST)
        before = reg.snapshot()["counters"]
        published.publish(make_product(1), {"sst_nowcast": make_field(2)})
        assert service.cached("GET", TILE) is None
        assert reg.snapshot()["counters"] == before
        assert len(recorder.spans()) == 1

    def test_accounting_matches_the_one_path_service(self, published):
        """The counts ``handle`` recorded for this sequence before it had a
        hit path (commit 7016467): one span and one count per request."""
        reg = MetricsRegistry()
        recorder = TraceRecorder()
        service = ProductService(published.workdir, registry=reg, telemetry=recorder)
        etag = {"if-none-match": service.handle("GET", LATEST).header("ETag")}
        field = make_field(1)
        sequence = [
            ("GET", LATEST, None),
            ("GET", LATEST, etag),
            ("GET", TILE, None),
            ("GET", TILE, None),
            ("GET", "/v1/products/1/tiles/sst_nowcast/1/1", None),
            ("GET", FIELD, None),
            ("GET", LATEST + "/fields/salinity", None),
            ("GET", "/healthz", None),
            ("GET", "/nope", None),
            ("POST", LATEST, None),
            ("GET", "/v1/products/9", None),
            "publish",
            ("GET", LATEST, etag),
            ("GET", TILE, None),
            ("GET", "/v1/products/1", None),
        ]
        for k, step in enumerate(sequence):
            if step == "publish":
                published.publish(
                    make_product(1), {"sst_nowcast": field + 1, "sst_sigma": np.abs(field)}
                )
            elif k % 2:  # alternate the entry the way the server's two sides do
                service.handle(*step)
            elif service.cached(*step) is None:
                service.handle(*step)
        snap = reg.snapshot()
        counters = {k: v for k, v in snap["counters"].items() if v}
        assert counters == {
            "product_cache_hits{cache=responses}": 4.0,
            "product_cache_hits{cache=snapshots}": 9.0,
            "product_cache_misses{cache=responses}": 6.0,
            "product_cache_misses{cache=snapshots}": 3.0,
            "product_requests{route=field,status=200}": 1.0,
            "product_requests{route=field,status=404}": 1.0,
            "product_requests{route=healthz,status=200}": 1.0,
            "product_requests{route=product,status=200}": 4.0,
            "product_requests{route=product,status=304}": 1.0,
            "product_requests{route=product,status=503}": 1.0,
            "product_requests{route=tile,status=200}": 4.0,
            "product_requests{route=unknown,status=404}": 1.0,
            "product_requests{route=unknown,status=405}": 1.0,
        }
        assert {k: v["count"] for k, v in snap["histograms"].items()} == {
            "product_request_seconds{route=field}": 2,
            "product_request_seconds{route=healthz}": 1,
            "product_request_seconds{route=product}": 6,
            "product_request_seconds{route=tile}": 4,
            "product_request_seconds{route=unknown}": 2,
        }
        spans = [s for s in recorder.spans() if s.name == "product_request"]
        assert len(spans) == 13  # every request but the 404 / 405 of no route

    def test_a_hit_refreshes_lru_recency(self, published):
        """A cached answer is the stored object itself; a re-render is not."""
        service = ProductService(published.workdir, cache_size=2)
        tiles = [LATEST + f"/tiles/sst_nowcast/{tj}/0" for tj in range(3)]
        first = [service.handle("GET", target) for target in tiles[:2]]
        assert service.cached("GET", tiles[0]) is first[0]  # now the newest
        service.handle("GET", tiles[2])  # evicts tiles[1], not tiles[0]
        assert service.cached("GET", tiles[0]) is first[0]
        again = service.cached("GET", tiles[1])  # rendered anew from the snapshot
        assert again == first[1] and again is not first[1]

    def test_latest_follows_head_on_the_very_next_request(self, published):
        """The remembered HEAD version never outlives the file it was read from."""
        service = self.warm(published)
        field = make_field(3)
        last = 1
        for round_ in range(100):
            for _ in range(1 + round_ % 2):  # every other round: two publishes
                last = published.publish(make_product(last), {"sst_nowcast": field})
            assert service.cached("GET", LATEST) is None
            response = service.handle("GET", LATEST)
            assert response.header("X-Product-Version") == str(last)
            assert service.cached("GET", LATEST) == response

    def test_torn_or_missing_head_answers_as_before(self, published):
        service = self.warm(published)
        good = published.head_path.read_text()
        for damage in ("unlink", "torn"):
            if damage == "unlink":
                published.head_path.unlink()
            else:
                published.head_path.write_text(good[: len(good) // 2])
            assert service.cached("GET", LATEST) is None
            assert service.handle("GET", LATEST).status == 503
            assert service.cached("GET", LATEST) is None  # a 503 certifies nothing
            assert service.cached("GET", "/v1/products/1").status == 200  # pinned, warm
            published.head_path.write_text(good)
            assert service.handle("GET", LATEST).status == 200
            assert service.cached("GET", LATEST).status == 200

    def test_loop_and_executor_sides_share_the_caches_cleanly(self, published):
        """``cached`` on one thread, ``handle`` on two more, caches small
        enough to evict constantly: every answer is right and every
        answered request is counted exactly once."""
        import sys
        import threading

        targets = [
            LATEST + f"/tiles/sst_nowcast/{tj}/{ti}" for tj in range(3) for ti in range(3)
        ]
        reference = ProductService(published.workdir)
        bodies = {t: reference.handle("GET", t).body for t in targets}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reg = MetricsRegistry()
            service = ProductService(published.workdir, cache_size=4, registry=reg)
            errors = []

            def misses(offset):
                try:
                    for k in range(300):
                        target = targets[(k + offset) % 9]
                        assert service.handle("GET", target).body == bodies[target]
                except Exception as exc:  # surfaced below, not lost in the thread
                    errors.append(exc)

            workers = [threading.Thread(target=misses, args=(k,)) for k in (0, 4)]
            for worker in workers:
                worker.start()
            answered = 0
            while any(worker.is_alive() for worker in workers):
                for target in targets:
                    response = service.cached("GET", target)
                    if response is not None:
                        answered += 1
                        assert response.body == bodies[target]
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert answered > 0
        counted = reg.snapshot()["counters"]["product_requests{route=tile,status=200}"]
        assert counted == 600 + answered
