"""The forecast-product read path: routes, caching, ETags, degradation.

This is the transport-agnostic core the asyncio front end
(:mod:`repro.products.server`) wraps: a :class:`ProductService` turns
``GET`` requests for product resources into :class:`ServiceResponse`
records, with

- a per-version **snapshot cache** (verified snapshots are immutable: one
  file read + checksum pass serves every later request of a version) and
  a **response cache** of finished ``200``s keyed by ``(version, resource)``;
- **two entries, one code path**: :meth:`ProductService.cached` answers
  from memory -- cached bodies, ``304``, and renders from a warm snapshot
  -- and returns ``None`` when a file must be read (the server calls it on
  its event loop); :meth:`ProductService.handle` is that, then the reads;
- **ETag / version validation**: every resource response carries
  ``ETag: "v<version>-<checksum16>"``; a request presenting it back via
  ``If-None-Match`` gets ``304 Not Modified`` with an empty body;
- **graceful 503 degradation**: a cycle still publishing (requested
  version newer than HEAD, or HEAD/snapshot momentarily unreadable
  mid-replace) answers ``503`` with ``Retry-After`` instead of an error
  page or a blocked reader;
- **telemetry**: one ``product_request`` span per request plus
  ``product_requests`` counters (by route and status) and a
  ``product_request_seconds`` histogram (by route) in the injected
  metrics registry -- the serving half of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.products.cache import LRUCache
from repro.products.store import (
    ProductNotFound,
    ProductPending,
    ProductReadError,
    ProductReader,
    ProductSnapshot,
)
from repro.telemetry.spans import NULL_RECORDER

#: Seconds readers are asked to back off when a cycle is still publishing.
RETRY_AFTER_SECONDS = 1
#: How many verified snapshots stay decoded in memory (0 with ``cache_size=0``).
SNAPSHOT_CACHE_SIZE = 4
_JSON = ("Content-Type", "application/json")
#: A target that is only an origin-form path: nothing for ``urlsplit`` to do.
_BARE_PATH = re.compile(r"/(?!/)[^?#\s]*").fullmatch
_MANIFEST_KEYS = ("shape", "tile_size", "tile_grid", "n_levels", "domain")


@dataclass(frozen=True)
class ServiceResponse:
    """One finished response: status code, headers, body bytes."""

    status: int
    body: bytes = b""
    headers: tuple[tuple[str, str], ...] = ()
    route: str = "unknown"

    @property
    def reason(self) -> str:
        """The HTTP reason phrase for :attr:`status`."""
        return HTTPStatus(self.status).phrase

    @cached_property
    def head(self) -> bytes:
        """Status line (after the HTTP version) and headers through
        ``Content-Length``, encoded once: a cached response is sent often."""
        lines = [f" {self.status} {self.reason}"]
        lines += [f"{name}: {value}" for name, value in self.headers]
        lines.append(f"Content-Length: {len(self.body)}\r\n")
        return "\r\n".join(lines).encode("latin-1")

    def header(self, name: str) -> str | None:
        """Case-insensitive header lookup (None when absent)."""
        found = (v for k, v in self.headers if k.lower() == name.lower())
        return next(found, None)


def _json_body(payload: dict) -> bytes:
    """Strict-JSON encode (NaN already converted to None upstream)."""
    return json.dumps(payload, sort_keys=True).encode()


def _array_json(array: np.ndarray) -> list:
    """A 2-D array as nested lists, NaN as None (``v != v``: no numpy scalar per value)."""
    rows = np.asarray(array, dtype=np.float64).tolist()
    return [[None if v != v else v for v in row] for row in rows]


def _plain(status: int, payload: dict, route: str = "unknown") -> ServiceResponse:
    """A small uncached JSON response."""
    return ServiceResponse(status, _json_body(payload), (_JSON,), route)


def _unavailable(why: str, route: str) -> ServiceResponse:
    """The graceful-degradation answer while a publish is in flight."""
    body = _json_body({"error": why, "retry_after": RETRY_AFTER_SECONDS})
    retry = ("Retry-After", str(RETRY_AFTER_SECONDS))
    return ServiceResponse(503, body, (_JSON, retry), route)


def _not_modified(snapshot: ProductSnapshot, headers, route: str):
    """The ``304`` for a request presenting the snapshot's own ETag, else None."""
    if headers and headers.get("if-none-match") == snapshot.etag:
        return ServiceResponse(304, headers=(("ETag", snapshot.etag),), route=route)
    return None


def _signature(path) -> tuple | None:
    """What ``os.replace`` cannot leave unchanged about a file (None if absent)."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_ctime_ns, st.st_size


#: A parsed target (version None = latest); ``[2:]`` names the resource in it.
_Route = namedtuple("_Route", "name version field level tj ti", defaults=(None, "", 0, 0, 0))


def _parse_target(target: str) -> _Route | None:
    """Parse a request target into a route (None = unknown path)."""
    path, query = target, {}
    if not _BARE_PATH(target):
        split = urlsplit(target)
        path = split.path
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
    parts = [p for p in path.split("/") if p]
    if parts == ["healthz"]:
        return _Route("healthz")
    if len(parts) < 3 or parts[0] != "v1" or parts[1] != "products":
        return None
    if parts[2] == "latest":
        version = None
    elif parts[2].isdigit():
        version = int(parts[2])
    else:
        return None
    rest = parts[3:]
    if not rest:
        return _Route("product", version)
    if rest[0] == "fields" and len(rest) == 2:
        level = query.get("level", "0")
        if level.lstrip("-").isdigit():
            return _Route("field", version, rest[1], int(level))
    if rest[0] == "tiles" and len(rest) == 4:
        if rest[2].isdigit() and rest[3].isdigit():
            return _Route("tile", version, rest[1], 0, int(rest[2]), int(rest[3]))
    return None


class ProductService:
    """Serve published product snapshots to many concurrent readers.

    Parameters
    ----------
    workdir:
        The :class:`~repro.products.store.ProductStore` root to read.
    cache_size:
        Response-cache capacity (finished responses); 0 disables response
        and snapshot caching (the benchmark's cache-off mode).
    registry:
        Optional metrics registry for request/cache instruments.
    telemetry:
        Span recorder; its clock also times request latency, so a
        simulated or fake clock drives exact latency tests.
    """

    def __init__(
        self,
        workdir,
        cache_size: int = 256,
        registry=None,
        telemetry=None,
        max_unreadable_reads: int = 64,
    ):
        self.reader = ProductReader(workdir, max_unreadable_reads=max_unreadable_reads)
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.registry = registry
        self._responses = LRUCache(cache_size, registry=registry, name="responses")
        self._snapshots = LRUCache(
            SNAPSHOT_CACHE_SIZE if cache_size else 0, registry=registry, name="snapshots"
        )
        #: (signature of HEAD.json taken before reading it, the version read).
        self._head: tuple = (None, None)

    # -- request entry points ------------------------------------------------

    def cached(
        self, method: str, target: str, headers: dict[str, str] | None = None
    ) -> ServiceResponse | None:
        """Answer from memory, or None -- nothing counted -- if that takes a file.

        A warm snapshot is memory: an uncached body is rendered and stored.
        For ``latest``, one ``os.stat`` of ``HEAD.json``: the remembered
        version stands only while the file's signature is the one taken
        before it was read.  ``headers`` keys must be lower-case.
        """
        started = self.telemetry.clock()
        if method.upper() != "GET":
            return self._account(started, _plain(405, {"error": "only GET is supported"}))
        route = _parse_target(target)
        if route is None:
            error = {"error": f"no such resource {target}"}
            return self._account(started, _plain(404, error))
        if route.name == "healthz":
            return None  # it reports what HEAD says now
        version = route.version
        if version is None:
            signature, version = self._head
            if signature is None or signature != _signature(self.reader.path):
                return None
        snapshot = self._snapshots.peek(version)
        if snapshot is None:
            return None
        self._snapshots.touch(version)
        return self._account(started, self._answer(route, snapshot, headers))

    def handle(
        self, method: str, target: str, headers: dict[str, str] | None = None
    ) -> ServiceResponse:
        """Answer one request; never raises for client-visible conditions.

        :meth:`cached`, then the miss work.  ``headers`` keys are treated
        case-insensitively; only ``If-None-Match`` is consulted.
        """
        if headers:
            headers = {k.lower(): v for k, v in headers.items()}
        response = self.cached(method, target, headers)
        if response is not None:
            return response
        started = self.telemetry.clock()
        route = _parse_target(target)
        try:
            response = self._load(route, headers)
        except ProductReadError as exc:
            # The bounded-retry contract tripped: the store is corrupt for
            # good, not mid-publish.  Surface it, do not crash the server.
            error = {"error": f"product store unreadable past retry bound: {exc}"}
            response = _plain(500, error, route.name)
        return self._account(started, response)

    def _account(self, started: float, response: ServiceResponse) -> ServiceResponse:
        """The one span, latency sample and count of an answered request."""
        ended, route = self.telemetry.clock(), response.route
        if route != "unknown":
            self.telemetry.record_span("product_request", started, ended, route=route)
        if self.registry is not None:
            latency = self.registry.histogram("product_request_seconds", route=route)
            latency.observe(ended - started)
            self.registry.counter(
                "product_requests", route=route, status=str(response.status)
            ).inc()
        return response

    def _answer(self, route: _Route, snapshot: ProductSnapshot, headers) -> ServiceResponse:
        """``304``, else the cached body, else a fresh render (stored if a 200)."""
        response = _not_modified(snapshot, headers, route.name)
        if response is None:
            key = (snapshot.version, route.name) + route[2:]
            response = self._responses.get(key)
            if response is None:
                response = self._render(route, snapshot)
                if response.status == 200:  # a 404 for a bad field/tile is not cached
                    self._responses.put(key, response)
        return response

    # -- the miss work: file reads -------------------------------------------

    def _load(self, route: _Route, headers) -> ServiceResponse:
        """Read what memory lacks (HEAD, a snapshot), then answer from it."""
        name = route.name
        if name == "healthz":
            return self._healthz()
        try:
            snapshot = self._snapshot(route.version)
        except ProductPending as exc:
            return _unavailable(str(exc), name)
        except ProductNotFound as exc:
            return _plain(404, {"error": str(exc)}, name)
        if snapshot is None:
            return _unavailable("no product published yet (store warming up)", name)
        return self._answer(route, snapshot, headers)

    def _snapshot(self, version: int | None) -> ProductSnapshot | None:
        """Fetch a verified snapshot through the per-version cache."""
        if version is None:
            signature = _signature(self.reader.path)  # before the read it certifies
            version = self.reader.latest_version()
            if version is None:
                return None
            self._head = (signature, version)
        cached = self._snapshots.get(version)
        if cached is not None:
            return cached
        snapshot = self.reader.fetch(version)
        if snapshot is not None:
            self._snapshots.put(snapshot.version, snapshot)
        return snapshot

    def _healthz(self) -> ServiceResponse:
        """Liveness plus the currently-served version (null before one)."""
        try:
            version = self.reader.latest_version()
        except Exception:
            version = None
        return _plain(200, {"status": "ok", "version": version}, "healthz")

    def _render(self, route: _Route, snapshot: ProductSnapshot) -> ServiceResponse:
        """Render one resource (a 404 for a field, level or tile it lacks)."""
        name = route.name
        if name == "product":
            fields = snapshot.manifest["fields"].items()
            payload = {
                "cycle_index": snapshot.cycle_index,
                "checksum": snapshot.checksum,
                "fields": {f: {k: meta[k] for k in _MANIFEST_KEYS} for f, meta in fields},
                "product": snapshot.product.to_dict(),
                "bulletin": snapshot.product.render(),
            }
        else:
            tiled = snapshot.fields.get(route.field)
            if tiled is None:
                error = f"no field {route.field!r} in version {snapshot.version}"
                listing = {"error": error, "fields": sorted(snapshot.fields)}
                return _plain(404, listing, name)
            try:
                if name == "field":
                    array = tiled.level(route.level)
                    payload = {
                        "level": route.level,
                        "shape": list(array.shape),
                        "domain": tiled.domain_summary(),
                    }
                else:
                    array = tiled.tile(route.tj, route.ti)
                    summary = tiled.summary(route.tj, route.ti).to_dict()
                    payload = {"tj": route.tj, "ti": route.ti, "summary": summary}
            except KeyError as exc:
                return _plain(404, {"error": str(exc)}, name)
            payload.update(field=tiled.name, values=_array_json(array))
        payload["version"] = snapshot.version
        version = ("X-Product-Version", str(snapshot.version))
        headers = (_JSON, ("ETag", snapshot.etag), version)
        return ServiceResponse(200, _json_body(payload), headers, name)
