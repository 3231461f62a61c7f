"""Unified event schema: detail parsing and per-layer converters."""

from types import SimpleNamespace

from repro.telemetry.events import (
    TelemetryEvent,
    from_workflow_events,
    parse_detail,
)


class TestParseDetail:
    def test_typed_key_values(self):
        attrs = parse_detail("member=3 rho=0.95 kind=pemodel")
        assert attrs == {"member": 3, "rho": 0.95, "kind": "pemodel"}
        assert isinstance(attrs["member"], int)
        assert isinstance(attrs["rho"], float)

    def test_loose_tokens_preserved(self):
        attrs = parse_detail("pool exhausted n=2")
        assert attrs["n"] == 2
        assert attrs["detail"] == "pool exhausted"

    def test_empty_detail(self):
        assert parse_detail("") == {}


class TestWorkflowConversion:
    def test_from_workflow_events(self):
        events = [
            SimpleNamespace(time=1.0, kind="publish", detail="count=4"),
            SimpleNamespace(time=2.0, kind="svd_done", detail="rank=6 rho=0.91"),
        ]
        converted = from_workflow_events(events)
        assert [e.kind for e in converted] == ["publish", "svd_done"]
        assert converted[0].attr("count") == 4
        assert converted[1].attr("rho") == 0.91
        assert all(e.source == "workflow" for e in converted)

    def test_real_workflow_event_type(self):
        from repro.workflow.parallel import WorkflowEvent

        converted = from_workflow_events(
            [WorkflowEvent(time=0.5, kind="submit", detail="member=1 attempt=0")]
        )
        assert converted[0].attr("member") == 1
        assert converted[0].attr("attempt") == 0


class TestTelemetryEvent:
    def test_attr_lookup(self):
        event = TelemetryEvent(time=1.0, kind="x", attrs=(("a", 1),))
        assert event.attr("a") == 1
        assert event.attr("b", "fallback") == "fallback"
