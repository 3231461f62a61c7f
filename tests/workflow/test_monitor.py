"""Tests for status-directory progress monitoring."""

import pytest

from repro.workflow.monitor import ProgressMonitor
from repro.workflow.statefiles import StatusDirectory, TaskStatus


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def status(tmp_path):
    return StatusDirectory(tmp_path)


class TestProgressMonitor:
    def test_counts_by_status(self, status):
        monitor = ProgressMonitor(status, {"pemodel": 10})
        for idx, code in [
            (0, TaskStatus.SUCCESS),
            (1, TaskStatus.SUCCESS),
            (2, TaskStatus.MODEL_FAILURE),
            (3, TaskStatus.CANCELLED),
            (4, TaskStatus.IO_FAILURE),
        ]:
            status.write("pemodel", idx, code)
        report = monitor.report("pemodel")
        assert report.succeeded == 2
        assert report.failed == 2  # model + io failures
        assert report.cancelled == 1
        assert report.reported == 5
        assert report.pending == 5
        assert not report.complete

    def test_complete_when_all_reported(self, status):
        monitor = ProgressMonitor(status, {"pert": 3})
        for idx in range(3):
            status.write("pert", idx, TaskStatus.SUCCESS)
        assert monitor.report("pert").complete

    def test_eta_from_throughput(self, status):
        clock = FakeClock()
        monitor = ProgressMonitor(status, {"pemodel": 100}, clock=clock)
        # 10 completions in 60 s -> 10/min -> 90 remaining -> 9 min ETA
        for idx in range(10):
            status.write("pemodel", idx, TaskStatus.SUCCESS)
        clock.t = 60.0
        report = monitor.report("pemodel")
        assert report.throughput_per_minute == pytest.approx(10.0)
        assert report.eta_seconds == pytest.approx(9 * 60.0)

    def test_eta_unknown_without_progress(self, status):
        clock = FakeClock()
        monitor = ProgressMonitor(status, {"pemodel": 5}, clock=clock)
        clock.t = 30.0
        assert monitor.report("pemodel").eta_seconds is None

    def test_baseline_excludes_preexisting_results(self, status):
        """A monitor attached mid-campaign measures *new* throughput."""
        for idx in range(5):
            status.write("pemodel", idx, TaskStatus.SUCCESS)
        clock = FakeClock()
        monitor = ProgressMonitor(status, {"pemodel": 10}, clock=clock)
        status.write("pemodel", 5, TaskStatus.SUCCESS)
        clock.t = 60.0
        report = monitor.report("pemodel")
        assert report.throughput_per_minute == pytest.approx(1.0)
        assert report.reported == 6

    def test_eta_none_when_reports_exceed_expectation(self, status):
        """Stale expectations must not claim a finished (or negative) ETA."""
        clock = FakeClock()
        monitor = ProgressMonitor(status, {"pemodel": 2}, clock=clock)
        for idx in range(4):
            status.write("pemodel", idx, TaskStatus.SUCCESS)
        clock.t = 60.0
        report = monitor.report("pemodel")
        assert report.eta_seconds is None
        assert report.pending == 0
        assert report.complete

    def test_eta_zero_only_when_exactly_complete(self, status):
        clock = FakeClock()
        monitor = ProgressMonitor(status, {"pemodel": 3}, clock=clock)
        for idx in range(3):
            status.write("pemodel", idx, TaskStatus.SUCCESS)
        clock.t = 30.0
        assert monitor.report("pemodel").eta_seconds == 0.0

    def test_baseline_excluded_for_every_kind(self, status):
        """The baseline fix applies per kind, not just the first one."""
        status.write("pert", 0, TaskStatus.SUCCESS)
        status.write("pemodel", 0, TaskStatus.SUCCESS)
        clock = FakeClock()
        monitor = ProgressMonitor(
            status, {"pert": 4, "pemodel": 4}, clock=clock
        )
        clock.t = 60.0
        # no *new* completions anywhere: both rates are zero, no fake ETA
        for kind in ("pert", "pemodel"):
            report = monitor.report(kind)
            assert report.throughput_per_minute == 0.0
            assert report.eta_seconds is None

    def test_gauges_fed_when_metrics_attached(self, status):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        monitor = ProgressMonitor(status, {"pemodel": 4}, metrics=registry)
        status.write("pemodel", 0, TaskStatus.SUCCESS)
        status.write("pemodel", 1, TaskStatus.MODEL_FAILURE)
        monitor.report("pemodel")
        gauges = registry.snapshot()["gauges"]
        assert gauges["progress_succeeded{kind=pemodel}"] == 1.0
        assert gauges["progress_failed{kind=pemodel}"] == 1.0
        assert gauges["progress_pending{kind=pemodel}"] == 2.0

    def test_render_line(self, status):
        monitor = ProgressMonitor(status, {"acoustic": 4})
        status.write("acoustic", 0, TaskStatus.SUCCESS)
        line = monitor.report("acoustic").render()
        assert "acoustic: 1/4" in line
        assert "ok 1" in line

    def test_multiple_kinds(self, status):
        monitor = ProgressMonitor(status, {"pert": 2, "pemodel": 2})
        status.write("pert", 0, TaskStatus.SUCCESS)
        reports = {r.kind: r for r in monitor.reports()}
        assert reports["pert"].reported == 1
        assert reports["pemodel"].reported == 0

    def test_validation(self, status):
        with pytest.raises(ValueError, match="non-empty"):
            ProgressMonitor(status, {})
        with pytest.raises(ValueError, match=">= 1"):
            ProgressMonitor(status, {"pert": 0})
        monitor = ProgressMonitor(status, {"pert": 1})
        with pytest.raises(KeyError, match="unknown kind"):
            monitor.report("pemodel")

    def test_live_workflow_integration(self, status, tmp_path):
        """The monitor reads a real parallel workflow's status directory."""
        from repro.core import (
            ESSEConfig,
            PerturbationGenerator,
            synthetic_initial_subspace,
        )
        from repro.core.ensemble import EnsembleRunner
        from repro.ocean import PEModel
        from repro.ocean.bathymetry import monterey_grid
        from repro.workflow import ParallelESSEWorkflow

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
            n_workers=2,
        )
        result = workflow.run(background)
        monitor = ProgressMonitor(workflow.status, {"pemodel": 8})
        report = monitor.report("pemodel")
        assert report.succeeded == result.n_completed
        assert report.complete
