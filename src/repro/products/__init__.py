"""Forecast-product service layer: store, tiles, cache, service, server.

The paper's forecaster timeline ends with "the study, selection and
web-distribution of the best forecasts" (Fig 1, Figs 5-6).
:mod:`repro.realtime.products` computes those products; this package
takes them the rest of the way to many concurrent readers:

- :mod:`~repro.products.tiles` -- tiled 2-D fields with per-tile
  min/max/mean/std summaries and factor-of-two LOD levels, so overview
  reads are ``O(tiles)``, not ``O(cells)``;
- :mod:`~repro.products.store` -- immutable versioned snapshots on disk
  behind the covfile commit-after-replace publish protocol: one writer,
  unlimited non-blocking readers, one checksum-verified file per version;
- :mod:`~repro.products.cache` -- the instrumented LRU for rendered
  responses and decoded snapshots;
- :mod:`~repro.products.service` -- the transport-agnostic read path
  (routes, ETag validation, 503-while-publishing degradation, request
  telemetry);
- :mod:`~repro.products.server` -- the stdlib-asyncio HTTP front end.

Layering: products may depend on realtime/telemetry/util only; nothing
below imports products back (see ``tools/lint/rules/layering.py``).
Usage and the on-disk layout are documented in
``docs/PRODUCT_SERVICE.md``; the load benchmark is
``benchmarks/bench_product_service.py``.
"""

from repro.products.cache import LRUCache
from repro.products.server import ProductHTTPServer, fetch
from repro.products.service import ProductService, ServiceResponse
from repro.products.store import (
    CycleProductPublisher,
    ProductNotFound,
    ProductPending,
    ProductReadError,
    ProductReader,
    ProductSnapshot,
    ProductStore,
    ProductStoreError,
)
from repro.products.tiles import TiledField, TileSummary, downsample, tile_statistics

__all__ = [
    "LRUCache",
    "ProductHTTPServer",
    "fetch",
    "ProductService",
    "ServiceResponse",
    "CycleProductPublisher",
    "ProductNotFound",
    "ProductPending",
    "ProductReadError",
    "ProductReader",
    "ProductSnapshot",
    "ProductStore",
    "ProductStoreError",
    "TiledField",
    "TileSummary",
    "downsample",
    "tile_statistics",
]
