"""Structured event records unifying the pipeline's event streams.

Two event vocabularies meet here: the parallel workflow's
:class:`~repro.workflow.parallel.WorkflowEvent` (``time/kind/detail``
with detail strings like ``"member=3 count=4"``) and the fault injector's
:class:`~repro.workflow.faults.FaultEvent`.  A :class:`TelemetryEvent` is
the common schema -- ``(time, kind, attrs, source)`` -- that both convert
into, so one exporter and one summary CLI serve every layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetryEvent:
    """One instantaneous, attributed occurrence on a telemetry clock."""

    time: float
    kind: str
    attrs: tuple[tuple[str, object], ...] = ()
    source: str = ""

    def attr(self, key: str, default=None):
        """Look up one attribute value by key."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default


def parse_detail(detail: str) -> dict:
    """Parse a ``"k=v k2=v2 trailing words"`` detail string into attrs.

    ``key=value`` tokens become typed attributes (int, then float, then
    string); any non-``k=v`` tokens are joined into a ``detail`` attr so
    no information is dropped in the conversion.
    """
    attrs: dict[str, object] = {}
    loose: list[str] = []
    for token in detail.split():
        key, sep, value = token.partition("=")
        if not sep or not key:
            loose.append(token)
            continue
        typed: object = value
        try:
            typed = int(value)
        except ValueError:
            try:
                typed = float(value)
            except ValueError:
                pass
        attrs[key] = typed
    if loose:
        attrs["detail"] = " ".join(loose)
    return attrs


def from_workflow_events(events, source: str = "workflow") -> list[TelemetryEvent]:
    """Convert :class:`WorkflowEvent` records to the unified schema."""
    return [
        TelemetryEvent(
            time=e.time,
            kind=e.kind,
            attrs=tuple(sorted(parse_detail(e.detail).items())),
            source=source,
        )
        for e in events
    ]


def from_fault_events(events, source: str = "faults") -> list[TelemetryEvent]:
    """Convert :class:`FaultEvent` records to the unified schema.

    The injector's events carry no timestamp (they are ordinal), so the
    ordinal position doubles as the time axis.
    """
    return [
        TelemetryEvent(
            time=float(i),
            kind=f"fault_{e.kind.value}" if hasattr(e.kind, "value") else str(e.kind),
            attrs=(("attempt", e.attempt), ("index", e.index)),
            source=source,
        )
        for i, e in enumerate(events)
    ]
