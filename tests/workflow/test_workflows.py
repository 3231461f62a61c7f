"""Tests for the serial (Fig 3) and parallel (Fig 4) ESSE workflows."""

import numpy as np
import pytest

from repro.core import (
    ESSEConfig,
    PerturbationGenerator,
    similarity_coefficient,
    synthetic_initial_subspace,
)
from repro.core.ensemble import EnsembleRunner
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.workflow import (
    CancellationPolicy,
    ParallelESSEWorkflow,
    SerialESSEWorkflow,
)
from repro.workflow.statefiles import TaskStatus


@pytest.fixture(scope="module")
def setup():
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=8, seed=0
    )
    perturber = PerturbationGenerator(model.layout, subspace, root_seed=5)
    runner = EnsembleRunner(model, perturber, duration=6 * 400.0, root_seed=5)
    return model, background, runner


def config(**kw):
    defaults = dict(
        initial_ensemble_size=4,
        max_ensemble_size=16,
        convergence_tolerance=0.9,
        max_subspace_rank=8,
    )
    defaults.update(kw)
    return ESSEConfig(**defaults)


class TestSerialWorkflow:
    def test_runs_to_convergence_or_nmax(self, setup, tmp_path):
        _, background, runner = setup
        result = SerialESSEWorkflow(runner, config(), tmp_path).run(background)
        assert result.ensemble_size >= 4
        assert result.subspace.rank >= 1
        assert result.failed_members == ()

    def test_phase_timings_recorded(self, setup, tmp_path):
        _, background, runner = setup
        result = SerialESSEWorkflow(runner, config(), tmp_path).run(background)
        t = result.timings
        assert len(t.pert_forecast) == len(t.diff) == len(t.svd_conv)
        assert t.total > 0
        fractions = t.phase_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        # bottleneck 1: the forecast loop dominates the serial shepherd
        assert fractions["pert_forecast"] > 0.5

    def test_status_files_written(self, setup, tmp_path):
        _, background, runner = setup
        result = SerialESSEWorkflow(runner, config(), tmp_path).run(background)
        wf = SerialESSEWorkflow(runner, config(), tmp_path)
        done = wf.status.completed_indices("pemodel")
        assert len(done) == result.ensemble_size

    def test_covariance_file_exists(self, setup, tmp_path):
        _, background, runner = setup
        wf = SerialESSEWorkflow(runner, config(), tmp_path)
        wf.run(background)
        assert wf.cov_path.exists()

    def test_deadline_limits_rounds(self, setup, tmp_path):
        _, background, runner = setup
        result = SerialESSEWorkflow(
            runner,
            config(convergence_tolerance=1.0, deadline_seconds=0.0),
            tmp_path,
        ).run(background)
        assert result.ensemble_size <= 8  # stopped after the first stage


class TestParallelWorkflow:
    def test_runs_and_converges(self, setup, tmp_path):
        _, background, runner = setup
        result = ParallelESSEWorkflow(runner, config(), tmp_path, n_workers=4).run(
            background
        )
        assert result.ensemble_size >= 4
        assert result.n_failed == 0
        assert result.wall_seconds > 0

    def test_diff_overlaps_forecasts(self, setup, tmp_path):
        """The decoupled differ consumes members while others still run."""
        _, background, runner = setup
        result = ParallelESSEWorkflow(
            runner, config(convergence_tolerance=1.0), tmp_path, n_workers=2
        ).run(background)
        assert result.overlap_fraction() > 0.5

    def test_out_of_order_completion_tolerated(self, setup, tmp_path):
        _, background, runner = setup
        result = ParallelESSEWorkflow(
            runner, config(convergence_tolerance=1.0), tmp_path, n_workers=4
        ).run(background)
        # member ids recorded in completion order, all distinct
        assert len(set(result.member_ids)) == len(result.member_ids)
        assert result.ensemble_size == len(result.member_ids)

    def test_subspace_statistically_equivalent_to_serial(self, setup, tmp_path):
        _, background, runner = setup
        cfg = config(convergence_tolerance=1.0)  # force both to Nmax
        serial = SerialESSEWorkflow(runner, cfg, tmp_path / "s").run(background)
        parallel = ParallelESSEWorkflow(
            runner, cfg, tmp_path / "p", n_workers=4
        ).run(background)
        rho = similarity_coefficient(serial.subspace, parallel.subspace)
        assert rho > 0.95

    def test_cancellation_on_convergence(self, setup, tmp_path):
        _, background, runner = setup
        # trivially converges at the first check -> later members cancelled
        result = ParallelESSEWorkflow(
            runner,
            config(convergence_tolerance=0.05, max_ensemble_size=64),
            tmp_path,
            n_workers=2,
        ).run(background)
        assert result.converged
        assert result.n_completed < 64

    def test_immediate_policy_skips_final_svd(self, setup, tmp_path):
        _, background, runner = setup
        result = ParallelESSEWorkflow(
            runner,
            config(convergence_tolerance=0.05, max_ensemble_size=64),
            tmp_path,
            n_workers=2,
            cancellation=CancellationPolicy.IMMEDIATE,
        ).run(background)
        assert result.converged
        final_svds = result.events_of("final_svd")
        assert final_svds == []

    def test_event_log_is_ordered(self, setup, tmp_path):
        _, background, runner = setup
        result = ParallelESSEWorkflow(runner, config(), tmp_path, n_workers=2).run(
            background
        )
        times = [e.time for e in result.events]
        assert times == sorted(times)
        kinds = {e.kind for e in result.events}
        assert {"central_done", "pool", "diff_added", "publish"} <= kinds

    def test_process_pool_backend(self, setup, tmp_path):
        _, background, runner = setup
        result = ParallelESSEWorkflow(
            runner, config(), tmp_path, n_workers=2, use_processes=True
        ).run(background)
        assert result.ensemble_size >= 4
        assert result.n_failed == 0

    def test_workflow_object_is_reusable(self, setup, tmp_path):
        """A second run() starts from nothing: no store tail, no old members."""
        model, background, runner = setup
        other = model.run(background, 86400.0)  # a different mean state
        cfg = config(convergence_tolerance=1.0)  # both to Nmax: deterministic
        wf = ParallelESSEWorkflow(runner, cfg, tmp_path / "reused", n_workers=2)
        wf.run(background)
        second = wf.run(other)
        fresh = ParallelESSEWorkflow(
            runner, cfg, tmp_path / "fresh", n_workers=2
        ).run(other)
        assert second.ensemble_size == fresh.ensemble_size == 16
        assert sorted(second.member_ids) == sorted(fresh.member_ids)
        assert similarity_coefficient(second.subspace, fresh.subspace) > 0.9999

    def test_validation(self, setup, tmp_path):
        _, _, runner = setup
        with pytest.raises(ValueError, match="n_workers"):
            ParallelESSEWorkflow(runner, config(), tmp_path, n_workers=0)
        with pytest.raises(ValueError, match="pool_margin"):
            ParallelESSEWorkflow(runner, config(), tmp_path, pool_margin=0.5)


class TestCovfileBackends:
    """What the workflow's covariance store costs the differ."""

    def test_memmap_slashes_differ_bytes(self, setup, tmp_path):
        """The append-only store writes O(n) per member, not O(n N)."""
        from repro.telemetry.metrics import MetricsRegistry

        model, background, runner = setup
        registry = MetricsRegistry()
        result = ParallelESSEWorkflow(
            runner,
            config(convergence_tolerance=1.0),
            tmp_path,
            n_workers=2,
            metrics=registry,
        ).run(background)
        n_members = len(result.member_ids)
        written = registry.counter("cov.bytes_written").value
        # each member once (column + id), plus one ~60-byte header per publish
        column_bytes = n_members * (8 * model.layout.size + 8)
        assert column_bytes <= written <= column_bytes + n_members * 128


class TestFaultTolerance:
    def test_failed_members_tolerated(self, setup, tmp_path):
        """Sec 4 point 3: failures are not catastrophic."""
        model, background, runner = setup

        class FlakyRunner(EnsembleRunner):
            def run_members_batched(self, mean_state, member_indices):
                from repro.core.ensemble import MemberResult

                # every 5th member "crashes"; its batch-mates run
                return [
                    MemberResult(r.member_index, None, "SimulatedCrash")
                    if r.member_index % 5 == 1
                    else r
                    for r in super().run_members_batched(mean_state, member_indices)
                ]

        flaky = FlakyRunner(
            runner.model, runner.perturber, runner.duration, runner.root_seed
        )
        result = ParallelESSEWorkflow(
            flaky, config(convergence_tolerance=1.0), tmp_path, n_workers=4
        ).run(background)
        assert result.n_failed >= 2
        assert result.subspace.rank >= 1  # statistics survive the holes
        failed_ids = {
            i
            for i, s in ParallelESSEWorkflow(
                flaky, config(), tmp_path, n_workers=1
            ).status.completed_indices("pemodel").items()
            if s == TaskStatus.MODEL_FAILURE
        }
        assert all(i % 5 == 1 for i in failed_ids)
