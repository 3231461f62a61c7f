"""Process-local metrics: counters, gauges and histograms.

The registry answers the operational questions the paper raises about
many-task runs -- how many retries, how deep is the queue, what is the
latency distribution per task kind -- without any external service.
Instruments are cheap, thread-safe, and identified by a name plus an
optional label set (``registry.counter("task_retries", kind="pemodel")``),
so the same metric can be sliced per task kind the way the paper's
tables slice per singleton type.

A registry is an object: whoever wants metrics builds a
:class:`MetricsRegistry` and passes it to the components it measures.
"""

from __future__ import annotations

import math
import threading


def _labels_key(name: str, labels: dict) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (retries, completions, bytes)."""

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, pool size, progress)."""

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """A distribution of observations (task latencies, I/O sweep counts).

    Keeps raw observations (runs here are thousands of tasks, not
    billions), so percentiles are exact rather than bucket-approximated.
    """

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def sum(self) -> float:
        """Sum of observations."""
        with self._lock:
            return math.fsum(self._values)

    @property
    def mean(self) -> float | None:
        """Mean observation (None when empty)."""
        with self._lock:
            if not self._values:
                return None
            return math.fsum(self._values) / len(self._values)

    def percentile(self, q: float) -> float | None:
        """Exact q-th percentile (0 <= q <= 100; None when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._values:
                return None
            ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """Get-or-create home for all instruments of one process/run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, store: dict, cls, name: str, labels: dict):
        key = _labels_key(name, labels)
        with self._lock:
            instrument = store.get(key)
            if instrument is None:
                instrument = store[key] = cls(name, labels)
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``name`` + labels (created on first use)."""
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``name`` + labels (created on first use)."""
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram for ``name`` + labels (created on first use)."""
        return self._get(self._histograms, Histogram, name, labels)

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (JSON-serialisable).

        Histograms are summarised as count/sum/mean/p50/p90/p95/p99/max so
        the snapshot stays bounded regardless of observation volume (and
        the serving-latency tail is readable straight off the snapshot).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: c.value for k, c in counters.items()},
            "gauges": {k: g.value for k, g in gauges.items()},
            "histograms": {
                k: {
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "p50": h.percentile(50),
                    "p90": h.percentile(90),
                    "p95": h.percentile(95),
                    "p99": h.percentile(99),
                    "max": h.percentile(100),
                }
                for k, h in histograms.items()
            },
        }
