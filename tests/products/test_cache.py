"""LRU cache semantics: eviction order, disable mode, metrics."""

import pytest

from repro.products.cache import LRUCache
from repro.telemetry.metrics import MetricsRegistry


class TestLRUCache:
    def test_put_get_and_miss(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not a new entry
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_none_values_rejected(self):
        with pytest.raises(ValueError, match="miss sentinel"):
            LRUCache(2).put("a", None)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LRUCache(-1)

    def test_metrics_instrumentation(self):
        reg = MetricsRegistry()
        cache = LRUCache(2, registry=reg, name="t")
        cache.get("a")          # miss
        cache.put("a", 1)
        cache.get("a")          # hit
        cache.put("b", 2)
        cache.put("c", 3)       # evicts "a"
        counters = reg.snapshot()["counters"]
        assert counters["product_cache_hits{cache=t}"] == 1.0
        assert counters["product_cache_misses{cache=t}"] == 1.0
        assert counters["product_cache_evictions{cache=t}"] == 1.0
        assert reg.snapshot()["gauges"]["product_cache_entries{cache=t}"] == 2.0

    def test_refreshing_a_key_evicts_nothing(self):
        reg = MetricsRegistry()
        cache = LRUCache(2, registry=reg, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        snapshot = reg.snapshot()
        assert snapshot["counters"].get("product_cache_evictions{cache=t}", 0.0) == 0.0
        assert snapshot["gauges"]["product_cache_entries{cache=t}"] == 2.0
