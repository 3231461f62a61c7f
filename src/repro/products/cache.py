"""A small thread-safe LRU cache for rendered product responses.

A miss costs its render, not its load: a ``serve_publish`` body (800
requests, 4 publishes; one Xeon core) renders 347 bodies in 99 ms, three
quarters of it ``json.dumps`` float text, and loads 4 snapshots (npz
decode + SHA-256) in 11 ms.  Both are pure functions of ``(version,
resource)``, and versions are immutable once published -- so an LRU keyed
by that pair never needs invalidation: retired versions age out.

Instrumented: hit/miss/eviction counters land in an optional
:class:`~repro.telemetry.metrics.MetricsRegistry` so the load benchmark
and the Prometheus exporter can report cache effectiveness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries; 0 disables caching entirely (every
        ``get`` misses, ``put`` is a no-op) -- the bench's cache-off mode.
    registry:
        Optional metrics registry receiving ``product_cache_hits`` /
        ``product_cache_misses`` / ``product_cache_evictions`` counters
        and a ``product_cache_entries`` gauge, labelled ``cache=<name>``.
    name:
        Label distinguishing multiple caches in one registry.
    """

    def __init__(self, capacity: int, registry=None, name: str = "default"):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        if registry is not None:
            self._hits = registry.counter("product_cache_hits", cache=name)
            self._misses = registry.counter("product_cache_misses", cache=name)
            self._evictions = registry.counter("product_cache_evictions", cache=name)
            self._size = registry.gauge("product_cache_entries", cache=name)
        else:
            self._hits = self._misses = self._evictions = self._size = None

    def get(self, key):
        """The cached value for ``key`` (None on miss; counts either way)."""
        value = self.peek(key)
        if value is not None:
            self.touch(key)
        elif self._misses is not None:
            self._misses.inc()
        return value

    def peek(self, key):
        """The cached value or None; counts nothing, leaves recency alone."""
        with self._lock:
            return self._entries.get(key)

    def touch(self, key) -> None:
        """Count as a hit, and mark as used, a value :meth:`peek` returned.

        ``peek`` then ``touch`` is ``get`` for a caller that must leave no
        trace unless it goes on to answer from the value.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
        if self._hits is not None:
            self._hits.inc()

    def put(self, key, value) -> None:
        """Insert/refresh an entry, evicting the oldest beyond capacity.

        ``None`` values are rejected -- ``get`` uses None as its miss
        sentinel, so caching one would alias a permanent miss.
        """
        if value is None:
            raise ValueError("cannot cache None (reserved as the miss sentinel)")
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            size = len(self._entries)
        if self._evictions is not None and evicted:
            self._evictions.inc(evicted)
        if self._size is not None:
            self._size.set(size)

    def __len__(self) -> int:
        """Current number of cached entries."""
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (capacity unchanged)."""
        with self._lock:
            self._entries.clear()
        if self._size is not None:
            self._size.set(0)
