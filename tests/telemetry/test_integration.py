"""End-to-end telemetry: live workflow, fake clock, CLI."""

import json

import pytest

from repro.core import (
    ESSEConfig,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.core.ensemble import EnsembleRunner
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.telemetry import (
    FakeClock,
    MetricsRegistry,
    TraceRecorder,
    chrome_trace,
    validate_chrome_trace,
    write_jsonl,
)
from repro.workflow import ParallelESSEWorkflow


def small_workflow(tmp_path, telemetry=None, metrics=None, n_workers=2):
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    background = model.run(model.rest_state(), 10 * model.config.dt)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=6, seed=0
    )
    runner = EnsembleRunner(
        model,
        PerturbationGenerator(model.layout, subspace, root_seed=5),
        duration=4 * model.config.dt,
        root_seed=5,
    )
    workflow = ParallelESSEWorkflow(
        runner,
        ESSEConfig(
            initial_ensemble_size=4,
            max_ensemble_size=8,
            convergence_tolerance=1.0,
            max_subspace_rank=6,
        ),
        tmp_path / "wf",
        n_workers=n_workers,
        telemetry=telemetry,
        metrics=metrics,
    )
    return workflow, background


class TestParallelWorkflowTracing:
    def test_exports_valid_nested_chrome_trace(self, tmp_path):
        """The acceptance criterion: a real run -> valid, nested trace."""
        recorder = TraceRecorder()
        metrics = MetricsRegistry()
        workflow, background = small_workflow(
            tmp_path, telemetry=recorder, metrics=metrics
        )
        result = workflow.run(background)

        spans = recorder.spans()
        names = {s.name for s in spans}
        assert "workflow.run" in names
        assert "pemodel" in names
        # the one stage loop: the differ's propagation and the SVD it feeds
        assert "stage.propagate" in names
        assert "stage.svd" in names

        # span tree is well-formed: every parent exists and contains its kids
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start + 1e-9
            assert span.end <= parent.end + 1e-9

        # one pemodel span per batch attempt, covering every completed or
        # failed member, all under root
        root = next(s for s in spans if s.name == "workflow.run")
        members = [s for s in spans if s.name == "pemodel"]
        assert sum(dict(m.attrs)["tasks"] for m in members) >= result.n_completed
        assert all(m.parent_id == root.span_id for m in members)

        obj = chrome_trace(spans=spans, events=recorder.events())
        assert validate_chrome_trace(obj) == []
        json.dumps(obj)  # serialisable as-is

        # metrics saw the run too
        snap = metrics.snapshot()
        assert snap["counters"]["svd_computations"] >= 1
        assert snap["histograms"]["task_seconds{kind=pemodel}"]["count"] == len(members)
        assert snap["gauges"]["members_completed{kind=pemodel}"] == result.n_completed

    def test_default_noop_recorder_changes_nothing(self, tmp_path):
        """Without telemetry the public result is unchanged and no spans
        exist anywhere (the pre-telemetry behaviour)."""
        workflow, background = small_workflow(tmp_path)
        result = workflow.run(background)
        assert workflow.telemetry.enabled is False
        assert workflow.telemetry.spans() == ()
        assert result.n_completed >= 4

    def test_fake_clock_threads_through_whole_workflow(self, tmp_path):
        """Satellite: one injected clock is the workflow's only time source."""
        clk = FakeClock(start=100.0)
        recorder = TraceRecorder(clock=clk)
        workflow, background = small_workflow(tmp_path, telemetry=recorder)
        result = workflow.run(background)
        # no real clock leaked in: every timestamp is the fake clock's value
        assert result.wall_seconds == 0.0
        for span in recorder.spans():
            assert span.start == 100.0
            assert span.end == 100.0


class TestTraceSummaryCli:
    def test_prints_latency_table_from_jsonl(self, tmp_path, capsys):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
        try:
            import trace_summary
        finally:
            sys.path.pop(0)

        clk = FakeClock()
        rec = TraceRecorder(clock=clk)
        with rec.span("workflow.run"):
            for i in range(3):
                with rec.span("pemodel", index=i):
                    clk.advance(1.0 + i)
            rec.event("publish", count=3)
        path = write_jsonl(
            tmp_path / "run.jsonl", spans=rec.spans(), events=rec.events()
        )
        assert trace_summary.main([str(path), "--events"]) == 0
        out = capsys.readouterr().out
        assert "pemodel" in out
        assert "workflow.run" in out
        assert "publish" in out

    def test_empty_log_exits_nonzero(self, tmp_path, capsys):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
        try:
            import trace_summary
        finally:
            sys.path.pop(0)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert trace_summary.main([str(empty)]) == 1
