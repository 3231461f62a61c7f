"""Exporters: JSONL run logs, Chrome trace JSON, Prometheus text.

Three sinks for the same recorded telemetry:

- :func:`write_jsonl` / :func:`read_jsonl` -- the durable run log, one
  self-describing JSON object per line; :mod:`tools.trace_summary` reads
  this format back for latency tables.
- :func:`chrome_trace` / :func:`write_chrome_trace` -- the Trace Event
  Format consumed by ``chrome://tracing`` and https://ui.perfetto.dev, so
  a task-pool run renders as the paper's Fig 4 Gantt timeline with one
  track per thread.
- :func:`prometheus_text` -- a Prometheus exposition-format snapshot of a
  :class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, TelemetryEvent


@dataclass
class RunLog:
    """The parsed contents of one JSONL telemetry run log."""

    spans: list[Span] = field(default_factory=list)
    events: list[TelemetryEvent] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


# -- JSONL run log -----------------------------------------------------------


def _span_line(span: Span) -> dict:
    return {
        "type": "span",
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "thread": span.thread,
        "status": span.status,
        "attrs": dict(span.attrs),
    }


def _event_line(event: TelemetryEvent) -> dict:
    return {
        "type": "event",
        "time": event.time,
        "kind": event.kind,
        "attrs": dict(event.attrs),
    }


def write_jsonl(path, spans=(), events=(), metrics=None) -> Path:
    """Write one run's telemetry as a JSONL log; returns the path.

    ``metrics`` may be a :class:`MetricsRegistry`, a snapshot dict, or
    None.  Spans and events accept any iterables of the telemetry types
    (a recorder's ``spans()`` / ``events()`` tuples fit directly).
    """
    path = Path(path)
    snapshot = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(_span_line(span), default=str) + "\n")
        for event in events:
            fh.write(json.dumps(_event_line(event), default=str) + "\n")
        if snapshot is not None:
            fh.write(json.dumps({"type": "metrics", "snapshot": snapshot}) + "\n")
    return path


def read_jsonl(path) -> RunLog:
    """Parse a JSONL run log back into telemetry records.

    Unknown line types are skipped (forward compatibility), so readers
    keep working when writers grow new record types.
    """
    log = RunLog()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        rtype = record.get("type")
        if rtype == "span":
            log.spans.append(
                Span(
                    name=record["name"],
                    start=record["start"],
                    end=record["end"],
                    span_id=record["span_id"],
                    parent_id=record.get("parent_id"),
                    thread=record.get("thread", "main"),
                    status=record.get("status", "ok"),
                    attrs=tuple(sorted(record.get("attrs", {}).items())),
                )
            )
        elif rtype == "event":
            log.events.append(
                TelemetryEvent(
                    time=record["time"],
                    kind=record["kind"],
                    attrs=tuple(sorted(record.get("attrs", {}).items())),
                )
            )
        elif rtype == "metrics":
            log.metrics = record.get("snapshot", {})
    return log


# -- Chrome trace (chrome://tracing / Perfetto) ------------------------------


def chrome_trace(spans=(), events=()) -> dict:
    """Build a Trace Event Format object from spans and events.

    Spans become complete (``ph="X"``) events with microsecond
    timestamps; telemetry events become thread-scoped instants
    (``ph="i"``); thread names are declared via metadata (``ph="M"``)
    records so Perfetto labels each track (differ, svd, workers...).
    Everything sits in process 1.
    """
    trace_events: list[dict] = []
    tids: dict[str, int] = {}

    def tid_of(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[thread],
                    "args": {"name": thread},
                }
            )
        return tids[thread]

    for span in spans:
        trace_events.append(
            {
                "name": span.name,
                "cat": span.status,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "pid": 1,
                "tid": tid_of(span.thread),
                "args": dict(span.attrs) | {"span_id": span.span_id},
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event.kind,
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": event.time * 1e6,
                "pid": 1,
                "tid": tid_of("events"),
                "args": dict(event.attrs),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans=(), events=()) -> Path:
    """Write a Chrome-trace JSON file loadable in Perfetto."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans, events)))
    return path


def validate_chrome_trace(obj) -> list[str]:
    """Structural validation of a trace object; returns problem strings.

    Checks the invariants the Trace Event Format requires of ``"X"`` and
    ``"i"`` phases (numeric non-negative ``ts``/``dur``, names, pids) --
    the contract the CI smoke test enforces on exported task-pool runs.
    """
    problems: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a traceEvents array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "C"):
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if ph in ("X", "i", "B", "E", "C"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
    return problems


# -- Prometheus text snapshot ------------------------------------------------


def _prom_name(key: str) -> tuple[str, str]:
    """Split a registry key ``name{k=v,...}`` into (name, label string)."""
    if "{" not in key:
        return key, ""
    name, _, rest = key.partition("{")
    inner = rest.rstrip("}")
    labels = ",".join(
        f'{k}="{v}"' for k, _, v in (item.partition("=") for item in inner.split(","))
    )
    return name, "{" + labels + "}"


def prometheus_text(metrics) -> str:
    """Render a registry (or snapshot dict) in Prometheus text format.

    Counters and gauges map directly; histograms are exposed as
    summaries (``_count``, ``_sum`` and ``quantile`` samples), which is
    the exposition-format shape for client-computed percentiles.
    """
    snapshot = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    lines: list[str] = []
    declared: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in declared:
            declared.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in sorted(snapshot.get("counters", {}).items()):
        name, labels = _prom_name(key)
        declare(name, "counter")
        lines.append(f"{name}{labels} {value}")
    for key, value in sorted(snapshot.get("gauges", {}).items()):
        name, labels = _prom_name(key)
        declare(name, "gauge")
        lines.append(f"{name}{labels} {value}")
    for key, summary in sorted(snapshot.get("histograms", {}).items()):
        name, labels = _prom_name(key)
        declare(name, "summary")
        inner = labels[1:-1] if labels else ""
        for q, field_name in (
            (0.5, "p50"),
            (0.9, "p90"),
            (0.95, "p95"),
            (0.99, "p99"),
        ):
            if summary.get(field_name) is None:
                continue
            qlabel = f'quantile="{q}"' + (f",{inner}" if inner else "")
            lines.append(f"{name}{{{qlabel}}} {summary[field_name]}")
        lines.append(f"{name}_count{labels} {summary['count']}")
        lines.append(f"{name}_sum{labels} {summary['sum']}")
    return "\n".join(lines) + "\n"
