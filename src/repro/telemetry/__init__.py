"""Telemetry: tracing spans, metrics and timeline export for the pipeline.

The paper's central artifact is a *timeline*: Figs 1 and 4 are Gantt
pictures of perturbation / PE-model / differ / SVD tasks overlapping in
the pool-of-tasks workflow, and Sec 5.3.1 notes that remote execution
"gives no easy way for the user to monitor the progress of one's jobs".
This package is the instrument for both complaints:

- :mod:`~repro.telemetry.clock` -- injectable monotonic time sources
  (live, fake);
- :mod:`~repro.telemetry.spans` -- nestable thread-safe tracing spans
  and instantaneous events, with a zero-overhead :data:`NULL_RECORDER` as
  the default everywhere;
- :mod:`~repro.telemetry.metrics` -- process-local counters, gauges and
  histograms (task latency, retries, queue depth, differ I/O sweeps);
- :mod:`~repro.telemetry.export` -- JSONL run logs, Chrome-trace JSON
  (rendered by Perfetto as the paper's Fig 4 timeline) and a
  Prometheus-style text snapshot.

See ``docs/OBSERVABILITY.md`` for naming conventions and usage.
"""

from repro.telemetry.clock import MONOTONIC, FakeClock
from repro.telemetry.export import (
    RunLog,
    chrome_trace,
    prometheus_text,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TelemetryEvent,
    TraceRecorder,
)

__all__ = [
    "MONOTONIC",
    "FakeClock",
    "RunLog",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "TelemetryEvent",
    "TraceRecorder",
]
