"""The one stage loop's checkpoint accounting, and the Fig 4 drain around it.

:func:`repro.core.ensemble.grow_ensemble` factors a stage only when the
sink holds columns the last check did not see:

- a stage that adds nothing (its members all failed, or a client running
  ahead delivered them during an earlier stage) is neither factored nor
  tested -- the same columns would compare at similarity 1 and declare a
  false convergence;
- a stage that receives the members of several stages at once is one SVD.

After the loop, the Fig 4 workflow's drain under DRAIN_RUNNING folds the
members still running when it stopped and factors every folded member
once more, including a run that ends below the next stage; IMMEDIATE
skips both.
"""

import time

import numpy as np
import pytest

from repro.core import ESSEConfig, PerturbationGenerator, synthetic_initial_subspace
from repro.core.covariance import AnomalyAccumulator
from repro.core.ensemble import EnsembleRunner, MemberResult, grow_ensemble
from repro.core.state import FieldLayout, FieldSpec
from repro.core.subspace import ErrorSubspace
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.telemetry import TraceRecorder
from repro.workflow import CancellationPolicy, EnsembleEngine, ParallelESSEWorkflow


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
    return background, runner


def config(**kw):
    defaults = dict(
        initial_ensemble_size=4,
        max_ensemble_size=16,  # stages 4, 8, 16
        convergence_tolerance=0.999,
        max_subspace_rank=8,
    )
    defaults.update(kw)
    return ESSEConfig(**defaults)


class FailingRunner(EnsembleRunner):
    """Members ``failing`` crash; the rest of their batch runs as usual."""

    failing = range(4, 8)

    def run_members_batched(self, mean_state, member_indices):
        indices = list(member_indices)
        running = [i for i in indices if i not in self.failing]
        ran = {r.member_index: r for r in super().run_members_batched(mean_state, running)}
        return [ran.get(i, MemberResult(i, None, "SimulatedCrash")) for i in indices]


def run_engine(runner, background, workdir, cls=EnsembleRunner):
    member_runner = cls(runner.model, runner.perturber, runner.duration, runner.root_seed)
    engine = EnsembleEngine(member_runner, config(), workdir)
    return engine.run(background)


class TestNoCheckWithoutGrowth:
    def test_all_failed_stage_cannot_converge(self, setup, tmp_path):
        """Stage 2's members all fail: its count is stage 1's, so no check."""
        background, runner = setup
        clean = run_engine(runner, background, tmp_path / "clean")
        assert not clean.converged and clean.ensemble_size == 16
        with pytest.warns(UserWarning, match="degraded"):
            result = run_engine(runner, background, tmp_path / "failing", FailingRunner)
        assert result.failed_members == (4, 5, 6, 7)
        assert not result.converged
        assert result.ensemble_size == 12
        # checks at 4 and 12 members: one similarity, not a 1.0 at 4
        assert [count for count, _ in result.convergence_history] == [12]

    def test_jump_past_several_stages_is_one_svd(self):
        """Every member delivered during stage 1: one SVD, later stages none."""
        layout = FieldLayout([FieldSpec("x", (24,), scale=1.0)])
        sink = AnomalyAccumulator(layout, np.zeros(24))
        forecasts = np.random.default_rng(0).standard_normal((16, 24))
        rounds, checks = [], []

        def propagate(indices, deliver):
            rounds.append(indices)
            if not rounds[1:]:  # a client running ahead: all of Nmax at once
                for index in range(16):
                    deliver(MemberResult(index, forecasts[index]))

        recorder = TraceRecorder()
        growth = grow_ensemble(
            config(convergence_tolerance=1.0),
            propagate,
            sink,
            recorder,
            started=recorder.clock(),
            on_check=lambda *args: checks.append(args),
        )
        assert [(r.start, r.stop) for r in rounds] == [(0, 4), (4, 8), (8, 16)]
        assert [count for count, *_ in checks] == [16]
        assert [s.attr("count") for s in recorder.spans() if s.name == "stage.svd"] == [16]
        assert growth.ensemble_size == 16 and growth.convergence_history == ()
        expected = ErrorSubspace.from_anomalies(
            sink.view().columns[:, :16] / np.sqrt(15), rank=8, energy=0.999
        )
        np.testing.assert_allclose(growth.subspace.sigmas, expected.sigmas, rtol=1e-12)


class SlowTailRunner(EnsembleRunner):
    """A batch starting at ``slow_from`` or later takes long enough to be
    running at the stage-2 check."""

    slow_from = 16

    def run_members_batched(self, mean_state, member_indices):
        if min(member_indices) >= self.slow_from:
            time.sleep(0.5)
        return super().run_members_batched(mean_state, member_indices)


class TestFig4Drain:
    """Converge at stage 2 (16 members) while batch 16-23 is running.

    One worker and a pool kept three times the stage ahead: stage 1
    submits batches 0-7, 8-15 and 16-23; the check at 8 sees batch 0-7,
    stage 2 adds batches 24-31 to 40-47 and its check at 16 converges
    while 16-23 runs and the rest queue.
    """

    def run(self, setup, workdir, cancellation):
        background, runner = setup
        slow = SlowTailRunner(
            runner.model, runner.perturber, runner.duration, runner.root_seed
        )
        workflow = ParallelESSEWorkflow(
            slow,
            config(
                initial_ensemble_size=8, max_ensemble_size=64, convergence_tolerance=0.05
            ),
            workdir,
            n_workers=1,
            cancellation=cancellation,
            pool_margin=3.0,
        )
        return workflow, workflow.run(background)

    def test_final_svd_covers_every_folded_member(self, setup, tmp_path):
        workflow, result = self.run(setup, tmp_path, CancellationPolicy.DRAIN_RUNNING)
        assert result.converged
        assert [count for count, _ in result.convergence_history] == [16]
        # pool of 48 (16 x 3): 24-47 cancelled, 16-23 drained
        assert result.n_cancelled == 24
        assert sorted(result.member_ids) == list(range(24))
        # the run ends below the next stage (32), and the final SVD has it all
        (final,) = result.events_of("final_svd")
        assert final.detail == "count=24"
        assert result.ensemble_size == result.subspace.n_samples == 24
        snap = workflow.covset.read_safe()
        assert snap.count == 24
        expected = ErrorSubspace.from_anomalies(
            snap.columns[:, : snap.count] * snap.scale, rank=8, energy=0.999
        )
        np.testing.assert_allclose(result.subspace.sigmas, expected.sigmas, rtol=1e-10)
        np.testing.assert_allclose(
            result.subspace.modes, expected.modes, atol=1e-10 * np.abs(expected.modes).max()
        )

    def test_tmax_in_first_stage_factors_all_folded(self, setup, tmp_path):
        """Tmax of zero: the run stops after its first check."""
        background, runner = setup
        workflow = ParallelESSEWorkflow(
            runner, config(deadline_seconds=0.0), tmp_path, n_workers=2
        )
        result = workflow.run(background)
        # one check -- stage 1, cut short once it held two members unless
        # they all landed in one poll -- and no second stage
        assert not result.converged and result.convergence_history == ()
        # the first pool (4 x 1.5) is either folded -- drained if it was
        # running -- or cancelled, and the subspace has every folded member
        assert result.n_failed == 0
        assert result.ensemble_size + result.n_cancelled == 6
        assert result.ensemble_size == result.subspace.n_samples
        assert sorted(result.member_ids) == sorted(workflow.covset.read_safe().member_ids)

    def test_immediate_keeps_the_converged_subspace(self, setup, tmp_path):
        _, result = self.run(setup, tmp_path, CancellationPolicy.IMMEDIATE)
        assert result.converged and result.events_of("final_svd") == []
        assert result.ensemble_size == result.subspace.n_samples == 16
        assert sorted(result.member_ids) == list(range(16))
