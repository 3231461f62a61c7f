"""``serve_hot`` and ``serve_publish``: web distribution after a forecast lands.

A store seeded with many published versions is read by closed-loop
keep-alive clients in one asyncio loop -- closed loop because a map
client waits for each reply before asking for the next tile.  The mix is
the product manifest, coarse field overviews, tiles, and on every fifth
request an ``If-None-Match`` revalidation of the last manifest seen.

``serve_hot`` reads a store nobody writes: after the first pass every
response comes from the caches, so ``products.service`` + ``server`` +
``cache`` do all the work.

``serve_publish`` uses the same layer differently: a publisher thread
calls ``ProductStore.publish`` once every fixed number of *completed
requests* (a count, not a period, so the work per body is fixed), the
caches turn over and readers race the HEAD replacement.  A read-path
gain bought with publish-time or invalidation cost shows as a loss here.

Every 200 response is compared with the benchmark's own rendering of
the version the response names, and that version must not be older than
the last publish that had returned before the request was sent.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import threading

import numpy as np

from repro.products import ProductHTTPServer, ProductService, ProductStore, fetch
from repro.realtime import CandidateScore, ForecastProduct
from repro.telemetry.clock import MONOTONIC

import verify
from workloads.base import Verdict, Workload

FIELD_NAMES = ("sst_nowcast", "sst_sigma")
MANIFEST = "/v1/products/latest"
#: How much every cell of every field grows per published version, so the
#: expected content of any version follows from the seed and its number.
VERSION_STEP = 0.01
MAX_ATTEMPTS = 3
#: Share of requests per target kind (the rest are tiles).
MANIFEST_SHARE, OVERVIEW_SHARE = 0.10, 0.20


def pool2(array: np.ndarray) -> np.ndarray:
    """The benchmark's own NaN-aware 2x2 mean pooling (one LOD step)."""
    ny, nx = array.shape
    padded = np.full((ny + ny % 2, nx + nx % 2), np.nan)
    padded[:ny, :nx] = array
    blocks = padded.reshape(padded.shape[0] // 2, 2, padded.shape[1] // 2, 2)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(-1, 4)
    wet = ~np.isnan(blocks)
    counts = wet.sum(axis=1)
    sums = np.where(wet, blocks, 0.0).sum(axis=1)
    out = np.full(counts.shape, np.nan)
    out[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return out.reshape(padded.shape[0] // 2, padded.shape[1] // 2)


def product_for(version: int) -> ForecastProduct:
    """A plausible bulletin for one published version."""
    return ForecastProduct(
        cycle_index=version,
        nowcast_time=3600.0 * version,
        selected="central",
        scores=(CandidateScore(label="central", weighted_rmse=0.4),),
        sst_mean=12.0,
        sst_min=9.0,
        sst_max=15.0,
        sst_sigma_median=0.3,
        ensemble_size=32,
        converged=False,
    )


def seed_base_fields(shape, rng) -> dict[str, np.ndarray]:
    """Version-0 fields with a land corner, like the real grids."""
    sst = 12.0 + rng.standard_normal(shape)
    sigma = 0.3 * np.abs(rng.standard_normal(shape))
    for array in (sst, sigma):
        array[: shape[0] // 8, : shape[1] // 8] = np.nan
    return {"sst_nowcast": sst, "sst_sigma": sigma}


class Serving(Workload):
    """Closed-loop readers against the HTTP server, with or without a writer."""

    def setup(self) -> None:
        """Seed the store and draw every client's request order."""
        size = self.size
        shape = tuple(size["field_shape"])
        self.base = seed_base_fields(shape, self.stream.rng("serve", "fields"))
        # Pooling commutes with adding a constant to the wet cells, so the
        # expected overview of any version is the pooled base plus its step.
        self.pooled = {}
        for name, array in self.base.items():
            levels = [array]
            for _ in range(size["levels"]):
                levels.append(pool2(levels[-1]))
            self.pooled[name] = levels
        previous = getattr(self, "store_dir", None)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        self.store_dir = self.scratch.fresh("store")
        self.store = ProductStore(
            self.store_dir,
            tile_size=size["tile_size"],
            levels=size["levels"],
            retain=size["retain"],
        )
        for _ in range(size["seed_versions"]):
            self.publish_next(self.store)
        self.targets = self._targets(shape)
        self.plans = self._plans()

    def fields_of(self, version: int) -> dict[str, np.ndarray]:
        """The arrays published as ``version``."""
        return {name: array + VERSION_STEP * version for name, array in self.base.items()}

    def publish_next(self, store) -> int:
        """Publish the version after the store's current one."""
        version = self.store.version + 1
        return store.publish(product_for(version), self.fields_of(version))

    def _targets(self, shape) -> list[dict]:
        """Every distinct resource of the mix: manifest, overviews, tiles."""
        size = self.size
        targets = [{"kind": "manifest", "path": MANIFEST}]
        for name in FIELD_NAMES:
            for level in range(1, size["levels"] + 1):
                targets.append(
                    {
                        "kind": "field",
                        "field": name,
                        "level": level,
                        "path": f"{MANIFEST}/fields/{name}?level={level}",
                    }
                )
        ts = size["tile_size"]
        for name in FIELD_NAMES:
            for tj in range(-(-shape[0] // ts)):
                for ti in range(-(-shape[1] // ts)):
                    targets.append(
                        {
                            "kind": "tile",
                            "field": name,
                            "tj": tj,
                            "ti": ti,
                            "path": f"{MANIFEST}/tiles/{name}/{tj}/{ti}",
                        }
                    )
        return targets

    def _plans(self) -> list[np.ndarray]:
        """Per client, the seeded order of target indices."""
        size = self.size
        kinds = np.array([t["kind"] for t in self.targets])
        weights = np.where(
            kinds == "manifest",
            MANIFEST_SHARE,
            np.where(
                kinds == "field",
                OVERVIEW_SHARE / np.count_nonzero(kinds == "field"),
                (1.0 - MANIFEST_SHARE - OVERVIEW_SHARE) / np.count_nonzero(kinds == "tile"),
            ),
        )
        per_client = size["requests"] // size["clients"]
        return [
            self.stream.rng("serve", "order", c).choice(
                len(self.targets), size=per_client, p=weights / weights.sum()
            )
            for c in range(size["clients"])
        ]

    # -- one repetition ------------------------------------------------------

    def body(self, tracer, program_telemetry=None):
        """All clients to completion (and, if configured, every publish)."""
        registry = None
        if tracer.enabled:
            from repro.telemetry import MetricsRegistry

            registry = MetricsRegistry()
        service = ProductService(
            self.store_dir, registry=registry, telemetry=program_telemetry
        )
        load = _Load(self, tracer, registry)
        load.run(service)
        return load

    def digest(self, load) -> dict:
        """Counts, latencies and the verdict on every distinct body."""
        wrong = 0
        unparsable = 0
        for (index, version), bodies in load.bodies.items():
            for body, count in bodies.values():
                verdict = self._body_matches(self.targets[index], version, body)
                if verdict is None:
                    unparsable += count
                elif not verdict:
                    wrong += count
        facts = {
            "requests": load.requests,
            "ok": load.ok,
            "failed": load.requests - load.ok,
            "attempts": load.attempts,
            "status": dict(load.status),
            "wrong_bodies": wrong,
            "unparsable": unparsable,
            "stale": load.stale,
            "backwards": load.backwards,
            "publishes": load.published,
            "publishes_expected": load.n_publishes,
            "publish_error": load.publish_error,
            "elapsed_s": load.elapsed,
        }
        if load.registry is not None:
            counters = load.registry.snapshot()["counters"]
            hits = counters.get("product_cache_hits{cache=responses}", 0.0)
            misses = counters.get("product_cache_misses{cache=responses}", 0.0)
            facts["cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return facts

    def _body_matches(self, target: dict, version: int, body: bytes):
        """True/False for a parsed body vs the own rendering, None if unparsable."""
        try:
            payload = json.loads(body)
        except ValueError:
            return None
        if not isinstance(payload, dict) or payload.get("version") != version:
            return False
        if target["kind"] == "manifest":
            fields = payload.get("fields", {})
            return (
                sorted(fields) == sorted(FIELD_NAMES)
                and all(
                    tuple(fields[n]["shape"]) == self.base[n].shape for n in FIELD_NAMES
                )
                and bool(payload.get("checksum"))
            )
        step = VERSION_STEP * version
        if target["kind"] == "field":
            expected = self.pooled[target["field"]][target["level"]] + step
        else:
            ts = self.size["tile_size"]
            tj, ti = target["tj"], target["ti"]
            expected = (
                self.base[target["field"]][tj * ts : (tj + 1) * ts, ti * ts : (ti + 1) * ts]
                + step
            )
        try:
            values = np.array(
                [[np.nan if v is None else v for v in row] for row in payload["values"]],
                dtype=np.float64,
            )
        except (KeyError, TypeError, ValueError):
            return None
        return values.shape == expected.shape and bool(
            np.allclose(values, expected, rtol=0.0, atol=1e-9, equal_nan=True)
        )

    def check(self, digests: list[dict]) -> Verdict:
        """Every request answered, every body right, fresh and in order."""
        failures = verify.check_serving(digests)
        ok_bodies = sum(d["status"].get(200, 0) for d in digests)
        bad = sum(d["wrong_bodies"] + d["unparsable"] + d["stale"] for d in digests)
        return Verdict(
            attempted=sum(d["requests"] for d in digests),
            failed=sum(d["failed"] for d in digests),
            skill=(ok_bodies - bad) / ok_bodies if ok_bodies else 0.0,
            failures=failures,
        )

    def layer_counts(self, digest: dict) -> dict[str, float]:
        """Throughput, cache and status counts of one body."""
        return {
            "products.http_rps": digest["requests"] / digest["elapsed_s"],
            "products.cache_hit_rate": digest.get("cache_hit_rate", 0.0),
            "products.status_304": float(digest["status"].get(304, 0)),
            "products.status_503": float(digest["status"].get(503, 0)),
            "products.attempts_per_request": digest["attempts"] / digest["requests"],
            "products.publishes": float(digest["publishes"]),
        }


class ServeHot(Serving):
    """Readers only: every response after the first pass is a cache hit."""

    name = "serve_hot"


class ServePublish(Serving):
    """Readers racing a writer that publishes every K completed requests."""

    name = "serve_publish"


class _Load:
    """The clients, the optional publisher and everything they observed."""

    def __init__(self, workload: Serving, tracer, registry):
        self.workload = workload
        self.tracer = tracer
        self.registry = registry
        size = workload.size
        self.publish_every = size["publish_every"]
        self.n_publishes = (
            size["requests"] // self.publish_every if self.publish_every else 0
        )
        self.requests = sum(len(plan) for plan in workload.plans)
        self.completed = 0
        self.ok = 0
        self.attempts = 0
        self.status: dict[int, int] = {}
        self.stale = 0
        self.backwards = 0
        # (target index, version) -> {hash(body): [body, count]}
        self.bodies: dict[tuple[int, int], dict[int, list]] = {}
        self.floor_version = workload.store.version
        self.published = 0
        self.publish_error: str | None = None
        self.elapsed = 0.0
        self._due = threading.Semaphore(0)
        self._abort = False

    def run(self, service) -> None:
        """Serve, load and (if configured) publish until all counts are met."""
        publisher = None
        if self.n_publishes:
            publisher = threading.Thread(target=self._publish_loop, name="bench-publisher")
            publisher.start()
        try:
            asyncio.run(self._serve(service))
        finally:
            if publisher is not None:
                if self.completed < self.requests:
                    self._abort = True
                    self._due.release()
                publisher.join()

    def _publish_loop(self) -> None:
        store = self.tracer.wrap(
            self.workload.store, "products", {"publish": "products.publish"}
        )
        try:
            for _ in range(self.n_publishes):
                self._due.acquire()
                if self._abort:
                    return
                version = self.workload.publish_next(store)
                # Only now may a reader be held to this version.
                self.floor_version = version
                self.published += 1
        except Exception as exc:  # reported through the checks, not lost in a thread
            self.publish_error = f"{type(exc).__name__}: {exc}"

    async def _serve(self, service) -> None:
        server = ProductHTTPServer(
            self.tracer.wrap(service, "products", {"handle": "products.handle"})
        )
        async with server.serving():
            started = MONOTONIC()
            await asyncio.gather(
                *(
                    self._client(server, plan)
                    for plan in self.workload.plans
                )
            )
            self.elapsed = MONOTONIC() - started

    async def _client(self, server, plan) -> None:
        """One closed-loop client on a persistent connection."""
        get = self.tracer.wrap_fn(fetch, "products", "products.fetch")
        reader, writer = await asyncio.open_connection(server.host, server.port)
        etag = None
        last_version = 0
        try:
            for k, index in enumerate(plan.tolist()):
                headers = None
                if etag is not None and k % 5 == 4:
                    index, headers = 0, {"If-None-Match": etag}
                path = self.workload.targets[index]["path"]
                for _ in range(MAX_ATTEMPTS):
                    floor = self.floor_version
                    status, response_headers, body = await get(
                        server.host, server.port, path,
                        headers=headers, reader=reader, writer=writer,
                    )
                    self.attempts += 1
                    self.status[status] = self.status.get(status, 0) + 1
                    if status != 503:
                        break
                    await asyncio.sleep(float(response_headers.get("retry-after", "1")))
                if status in (200, 304):
                    self.ok += 1
                    version = _etag_version(response_headers.get("etag", ""))
                    if version < last_version:
                        self.backwards += 1
                    last_version = max(last_version, version)
                    if status == 200:
                        if version < floor:
                            self.stale += 1
                        seen = self.bodies.setdefault((index, version), {})
                        entry = seen.setdefault(hash(body), [body, 0])
                        entry[1] += 1
                        if index == 0:
                            etag = response_headers.get("etag", etag)
                self.completed += 1
                if self.publish_every and self.completed % self.publish_every == 0:
                    self._due.release()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _etag_version(etag: str) -> int:
    """The version inside an ``ETag: "v<version>-<checksum16>"`` (0 if absent)."""
    text = etag.strip('"')
    if not text.startswith("v") or "-" not in text:
        return 0
    digits = text[1 : text.index("-")]
    return int(digits) if digits.isdigit() else 0
