"""The ensemble engine and the process route beside it.

The engine steps each stage's members in vectorized batches, in process.
Process-parallel members are the Fig 4 pipeline on worker processes; at
``pool_margin=1.0`` its pool holds exactly the stage being grown, which
is how :func:`process_route` runs it.
"""

import numpy as np
import pytest

from repro.core import (
    ESSEConfig,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.core.ensemble import EnsembleRunner
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.workflow import (
    EnsembleEngine,
    FaultInjector,
    ParallelESSEWorkflow,
    RetryPolicy,
    TaskPool,
)
from repro.workflow.covfile import MemmapCovarianceStore
from repro.workflow.statefiles import TaskStatus
from tests.workflow.conftest import attempt_records


@pytest.fixture(scope="module")
def setup():
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=8, seed=0
    )
    perturber = PerturbationGenerator(model.layout, subspace, root_seed=5)
    runner = EnsembleRunner(model, perturber, duration=4 * 400.0, root_seed=5)
    return model, background, runner


def config(**kw):
    defaults = dict(
        initial_ensemble_size=4,
        max_ensemble_size=8,
        convergence_tolerance=0.9,
        max_subspace_rank=6,
    )
    defaults.update(kw)
    return ESSEConfig(**defaults)


def process_route(runner, cfg, workdir, **kwargs):
    """Fig 4 on two worker processes, its pool exactly the stage."""
    return ParallelESSEWorkflow(
        runner, cfg, workdir, n_workers=2, use_processes=True, pool_margin=1.0, **kwargs
    )


def anomaly_columns_by_member(run):
    """Mapping member id -> raw anomaly column from a run's column store."""
    snap = MemmapCovarianceStore(run.workdir).read_safe()
    return {
        member: np.asarray(snap.columns[:, j]).copy()
        for j, member in enumerate(snap.member_ids)
    }


class TestBackendEquivalence:
    """Per-member anomalies are bit-identical to ``run_member``'s on every route."""

    @pytest.fixture(scope="class")
    def results(self, setup, tmp_path_factory):
        _, background, runner = setup
        root = tmp_path_factory.mktemp("routes")
        runs = {
            "batched": EnsembleEngine(runner, config(), root / "batched", batch_size=3),
            "one_at_a_time": EnsembleEngine(
                runner, config(), root / "one_at_a_time", batch_size=1
            ),
            "processes": process_route(runner, config(), root / "processes"),
        }
        outcomes = {name: run.run(background) for name, run in runs.items()}
        columns = {name: anomaly_columns_by_member(run) for name, run in runs.items()}
        return outcomes, columns

    def test_all_backends_complete(self, results):
        outcomes, _ = results
        for name, res in outcomes.items():
            assert res.ensemble_size == len(res.member_ids) == 8, name
            assert res.wall_seconds >= 0.0
            assert res.convergence_history
        for name in ("batched", "one_at_a_time"):
            assert outcomes[name].failed_members == ()
        assert outcomes["processes"].n_failed == 0

    def test_member_anomalies_bit_identical(self, setup, results):
        """The stored columns are ``run_member(...).forecast - central``, exactly."""
        model, background, runner = setup
        _, columns = results
        central = model.to_vector(runner.central_forecast(background))
        reference = {
            member: model.layout.normalize(
                runner.run_member(background, member).forecast - central
            )
            for member in range(8)
        }
        for name, stored in columns.items():
            assert set(stored) == set(reference), name
            for member, column in reference.items():
                assert np.array_equal(stored[member], column), f"{name} member {member}"

    def test_serial_and_batched_subspace_bit_identical(self, results):
        """One member at a time or three: the same run, bit for bit."""
        outcomes, _ = results
        serial = outcomes["one_at_a_time"].subspace
        batched = outcomes["batched"].subspace
        assert np.array_equal(serial.modes, batched.modes)
        assert np.array_equal(serial.sigmas, batched.sigmas)
        assert outcomes["one_at_a_time"].member_ids == outcomes["batched"].member_ids

    def test_status_records_written(self, setup, results, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(runner, config(), tmp_path / "st", batch_size=3)
        result = engine.run(background)
        done = engine.status.completed_indices("pemodel")
        assert done == dict.fromkeys(range(8), TaskStatus.SUCCESS)
        # Batching happens within each growth stage: stages of 4 then 4
        # more members, each split into ceil(4/3) = 2 batch tasks, and
        # each batch writes one record naming its members.
        assert result.ensemble_size == 8
        assert len(list(engine.status.root.glob("pemodel.*.status"))) == 4

    def test_batch_size_validated(self, setup, tmp_path):
        _, _, runner = setup
        with pytest.raises(ValueError, match="batch_size"):
            EnsembleEngine(runner, config(), tmp_path, batch_size=0)


class TestProcessBackendFaults:
    """Retries, torn batch files and loss on the process route."""

    def test_crashes_are_retried_to_completion(self, setup, tmp_path):
        _, background, runner = setup
        route = process_route(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, seed=0),
            faults=FaultInjector(crash_rate=0.4, seed=7),
        )
        result = route.run(background)
        assert result.n_retried > 0
        assert result.ensemble_size == 4
        assert not result.degraded
        # every retried member carries an attempt-numbered failure record
        failures = attempt_records(route.status, TaskStatus.MODEL_FAILURE)
        assert len(failures) >= result.n_retried

    def test_torn_column_detected_and_retried(self, setup, tmp_path):
        _, background, runner = setup
        route = process_route(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            # Members 0 and 3 tear the one batch file at attempt 1, which
            # fails all four; member 2 then draws CORRUPT at attempts 2
            # and 3 on its own and lands at attempt 4.
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.0, seed=0),
            faults=FaultInjector(corrupt_rate=0.4, seed=7),
        )
        result = route.run(background)
        assert result.ensemble_size == 4
        assert not result.degraded
        # the truncated batch files were caught (IO_FAILURE) and the
        # final accepted columns are fully finite
        assert attempt_records(route.status, TaskStatus.IO_FAILURE)
        for column in anomaly_columns_by_member(route).values():
            assert np.all(np.isfinite(column))

    def test_exhausted_retries_degrade_gracefully(self, setup, tmp_path):
        _, background, runner = setup
        route = process_route(
            runner,
            config(
                initial_ensemble_size=4,
                max_ensemble_size=4,
                convergence_tolerance=1.0,
            ),
            tmp_path / "wf",
            faults=FaultInjector(crash_rate=0.4, seed=7),  # no retry policy
        )
        with pytest.warns(DegradedEnsembleWarning):
            result = route.run(background)
        assert result.degraded
        assert result.n_failed
        assert result.ensemble_size + result.n_failed == 4
        assert result.subspace.rank >= 1

    def test_fault_free_run_matches_serial(self, setup, tmp_path):
        """retry/faults wiring must not perturb the no-fault path."""
        _, background, runner = setup
        cfg = config(max_ensemble_size=4, convergence_tolerance=1.0)
        faulty = process_route(
            runner,
            cfg,
            tmp_path / "faulty",
            retry=RetryPolicy(max_attempts=3, seed=0),
            faults=FaultInjector(seed=0),  # all rates zero
        ).run(background)
        plain = EnsembleEngine(runner, cfg, tmp_path / "plain", batch_size=1).run(
            background
        )
        assert faulty.n_retried == 0
        assert sorted(faulty.member_ids) == sorted(plain.member_ids)


class TestProcessesMemberPool:
    """The process route runs the whole run on one member pool."""

    def test_one_executor_per_run(self, setup, tmp_path, monkeypatch):
        _, background, runner = setup
        entered = []
        enter = TaskPool.__enter__

        def counting_enter(pool):
            entered.append(pool.kind)
            return enter(pool)

        monkeypatch.setattr(TaskPool, "__enter__", counting_enter)
        result = process_route(
            runner,
            config(convergence_tolerance=1.0),  # two stages: 4 -> 8
            tmp_path / "wf",
        ).run(background)
        # checked at 4, compared at 8: two stages
        assert [count for count, _ in result.convergence_history] == [8]
        assert entered == ["pemodel"]

    def test_reused_workdir_folds_nothing_from_the_last_run(self, setup, tmp_path):
        """A second run() starts from nothing: no old batch file or record."""
        model, background, runner = setup
        other = model.run(background, 86400.0)  # a different mean state
        cfg = config(convergence_tolerance=1.0)
        reused = process_route(runner, cfg, tmp_path / "reused")
        reused.run(background)
        second = reused.run(other)
        fresh = process_route(runner, cfg, tmp_path / "fresh")
        expected = fresh.run(other)
        assert second.ensemble_size == expected.ensemble_size == 8
        assert sorted(second.member_ids) == sorted(expected.member_ids)
        columns = anomaly_columns_by_member(reused)
        for member, column in anomaly_columns_by_member(fresh).items():
            assert np.array_equal(columns[member], column), member
        # one successful first attempt per member, and no other record
        assert reused.status.completed_indices("pemodel") == dict.fromkeys(
            second.member_ids, TaskStatus.SUCCESS
        )
        records = {path.name for path in reused.status.root.glob("pemodel.*")}
        assert records == attempt_records(reused.status, TaskStatus.SUCCESS)
        assert all(name.endswith(".a1.status") for name in records)


class TestMemberRecords:
    """Batch records name their members: each member is counted once."""

    def test_batched_progress_in_member_units(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            batch_size=3,
        )
        result = engine.run(background)
        assert engine.status.completed_indices("pemodel") == dict.fromkeys(
            range(result.ensemble_size), TaskStatus.SUCCESS
        )

    def test_staged_growth_with_partial_batches_not_overcounted(
        self, setup, tmp_path
    ):
        """Stages of 4 batched in threes write 3+1, 3+1 -- exactly 8 members."""
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(),  # grows 4 -> 8 with tolerance 0.9
            tmp_path / "wf",
            batch_size=3,
        )
        result = engine.run(background)
        assert result.ensemble_size == 8
        assert engine.status.completed_indices("pemodel") == dict.fromkeys(
            range(8), TaskStatus.SUCCESS
        )
        assert attempt_records(engine.status, TaskStatus.SUCCESS) == {
            "pemodel.0-2.a1.status",
            "pemodel.3.a1.status",
            "pemodel.4-6.a1.status",
            "pemodel.7.a1.status",
        }

    def test_reused_engine_restarts_store_and_batch_bookkeeping(
        self, setup, tmp_path
    ):
        """A second run() neither dies on the store tail nor over-counts."""
        _, background, runner = setup
        engine = EnsembleEngine(runner, config(), tmp_path / "wf", batch_size=3)
        first = engine.run(background)
        second = engine.run(background)
        assert second.member_ids == first.member_ids
        assert np.array_equal(second.subspace.modes, first.subspace.modes)
        assert engine.status.completed_indices("pemodel") == dict.fromkeys(
            second.member_ids, TaskStatus.SUCCESS
        )
        assert len(attempt_records(engine.status, TaskStatus.SUCCESS)) == 4

    def test_serial_progress_per_member(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            batch_size=1,
        )
        result = engine.run(background)
        assert engine.status.completed_indices("pemodel") == dict.fromkeys(
            range(result.ensemble_size), TaskStatus.SUCCESS
        )
        assert attempt_records(engine.status, TaskStatus.SUCCESS) == {
            f"pemodel.{i}.a1.status" for i in range(4)
        }
