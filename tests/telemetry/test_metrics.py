"""Metrics registry semantics: instruments, labels, snapshots."""

import threading

import pytest

from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    _labels_key,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("retries")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("retries").inc(-1)

    def test_histogram_stats(self):
        h = Histogram("latency")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.mean == 2.5
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 2.5
        assert h.percentile(100) == 4.0

    def test_histogram_empty_and_validation(self):
        h = Histogram("latency")
        assert h.mean is None
        assert h.percentile(50) is None
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(101)

    def test_histogram_thread_safe_observe(self):
        h = Histogram("latency")
        threads = [
            threading.Thread(target=lambda: [h.observe(1.0) for _ in range(500)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 2000


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("task_retries", kind="pemodel")
        b = reg.counter("task_retries", kind="pemodel")
        c = reg.counter("task_retries", kind="pert")
        assert a is b
        assert a is not c

    def test_labels_key_is_order_independent(self):
        assert _labels_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert _labels_key("m", {}) == "m"

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("jobs_completed").inc(3)
        reg.gauge("queue_depth", kind="pemodel").set(7)
        reg.histogram("task_seconds", kind="pemodel").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"]["jobs_completed"] == 3.0
        assert snap["gauges"]["queue_depth{kind=pemodel}"] == 7.0
        hist = snap["histograms"]["task_seconds{kind=pemodel}"]
        assert hist["count"] == 1
        assert hist["sum"] == 1.5
        assert set(hist) == {
            "count", "sum", "mean", "p50", "p90", "p95", "p99", "max",
        }

    def test_snapshot_is_json_serialisable(self):
        import json

        reg = MetricsRegistry()
        reg.histogram("h").observe(2.0)
        json.dumps(reg.snapshot())
