"""The backend-selectable ensemble engine: equivalence, faults, monitoring."""

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
    BatchedBackend,
    EnsembleEngine,
    FaultInjector,
    ProcessesBackend,
    ProgressMonitor,
    RetryPolicy,
    SerialBackend,
    TaskPool,
    make_backend,
)
from repro.workflow.covfile import MemmapCovarianceStore
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


def anomaly_columns_by_member(engine):
    """Mapping member id -> raw anomaly column from the engine's store."""
    snap = MemmapCovarianceStore(engine.workdir).read_safe()
    return {
        member: np.asarray(snap.columns[:, j]).copy()
        for j, member in enumerate(snap.member_ids)
    }


class TestMakeBackend:
    def test_names_resolve(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("batched"), BatchedBackend)
        assert isinstance(make_backend("processes"), ProcessesBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProcessesBackend(n_workers=0)
        with pytest.raises(ValueError):
            BatchedBackend(batch_size=0)

    def test_members_per_task(self):
        """``engine.batch_size`` reaches both backends whose task is a batch."""
        assert make_backend("batched", batch_size=5).batch_size == 5
        assert make_backend("processes", batch_size=5).batch_size == 5
        with pytest.raises(ValueError):
            ProcessesBackend(batch_size=0)


class TestBackendEquivalence:
    """Per-member forecasts are bit-identical across every backend."""

    @pytest.fixture(scope="class")
    def results(self, setup, tmp_path_factory):
        _, background, runner = setup
        root = tmp_path_factory.mktemp("engines")
        engines = {
            name: EnsembleEngine(
                runner,
                config(),
                root / name,
                backend=make_backend(name, n_workers=2, batch_size=3),
            )
            for name in ("serial", "batched", "processes")
        }
        outcomes = {name: eng.run(background) for name, eng in engines.items()}
        columns = {
            name: anomaly_columns_by_member(eng)
            for name, eng in engines.items()
        }
        return outcomes, columns

    def test_all_backends_complete(self, results):
        outcomes, _ = results
        for name, res in outcomes.items():
            assert res.backend == name
            assert res.ensemble_size == len(res.member_ids)
            assert res.ensemble_size >= 4
            assert res.failed_members == ()
            assert res.wall_seconds >= 0.0
            assert res.convergence_history

    def test_member_anomalies_bit_identical(self, results):
        _, columns = results
        reference = columns["serial"]
        for name in ("batched", "processes"):
            assert set(columns[name]) == set(reference), name
            for member, column in reference.items():
                assert np.array_equal(columns[name][member], column), (
                    f"{name} member {member}"
                )

    def test_serial_and_batched_subspace_bit_identical(self, results):
        outcomes, _ = results
        serial = outcomes["serial"].subspace
        batched = outcomes["batched"].subspace
        assert np.array_equal(serial.modes, batched.modes)
        assert np.array_equal(serial.sigmas, batched.sigmas)
        assert outcomes["serial"].member_ids == outcomes["batched"].member_ids

    def test_status_records_written(self, setup, results, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner, config(), tmp_path / "st", backend=BatchedBackend(batch_size=3)
        )
        result = engine.run(background)
        done = engine.status.completed_indices("pemodel")
        assert done == dict.fromkeys(range(8), TaskStatus.SUCCESS)
        # Batching happens within each growth stage: stages of 4 then 4
        # more members, each split into ceil(4/3) = 2 batch tasks, and
        # each batch writes one record naming its members.
        assert result.ensemble_size == 8
        assert len(list(engine.status.root.glob("pemodel.*.status"))) == 4


class TestProcessBackendFaults:
    def test_crashes_are_retried_to_completion(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            backend=ProcessesBackend(n_workers=2),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, seed=0),
            faults=FaultInjector(crash_rate=0.4, seed=7),
        )
        result = engine.run(background)
        assert result.n_retried > 0
        assert result.ensemble_size == 4
        assert not result.degraded
        # every retried member carries an attempt-numbered failure record
        history = engine.status.attempt_counts("pemodel")
        failures = sum(
            n
            for counts in history.values()
            for status, n in counts.items()
            if status is not TaskStatus.SUCCESS
        )
        assert failures >= result.n_retried

    def test_torn_column_detected_and_retried(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            backend=ProcessesBackend(n_workers=2),
            # Members 0 and 3 tear the one batch file at attempt 1, which
            # fails all four; member 2 then draws CORRUPT at attempts 2
            # and 3 on its own and lands at attempt 4.
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.0, seed=0),
            faults=FaultInjector(corrupt_rate=0.4, seed=7),
        )
        result = engine.run(background)
        assert result.ensemble_size == 4
        assert not result.degraded
        # the truncated member files were caught (IO_FAILURE) and the
        # final accepted columns are fully finite
        statuses = [
            status
            for counts in engine.status.attempt_counts("pemodel").values()
            for status in counts
        ]
        assert TaskStatus.IO_FAILURE in statuses
        for column in anomaly_columns_by_member(engine).values():
            assert np.all(np.isfinite(column))

    def test_exhausted_retries_degrade_gracefully(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(
                initial_ensemble_size=4,
                max_ensemble_size=4,
                convergence_tolerance=1.0,
            ),
            tmp_path / "wf",
            backend=ProcessesBackend(n_workers=2),
            faults=FaultInjector(crash_rate=0.4, seed=7),  # no retry policy
        )
        with pytest.warns(DegradedEnsembleWarning):
            result = engine.run(background)
        assert result.degraded
        assert result.failed_members
        assert result.ensemble_size + len(result.failed_members) == 4
        assert result.subspace.rank >= 1

    def test_fault_free_run_matches_serial(self, setup, tmp_path):
        """retry/faults wiring must not perturb the no-fault path."""
        _, background, runner = setup
        cfg = config(max_ensemble_size=4, convergence_tolerance=1.0)
        faulty = EnsembleEngine(
            runner,
            cfg,
            tmp_path / "faulty",
            backend=ProcessesBackend(n_workers=2),
            retry=RetryPolicy(max_attempts=3, seed=0),
            faults=FaultInjector(seed=0),  # all rates zero
        ).run(background)
        plain = EnsembleEngine(
            runner, cfg, tmp_path / "plain", backend=SerialBackend()
        ).run(background)
        assert faulty.n_retried == 0
        assert sorted(faulty.member_ids) == sorted(plain.member_ids)


class TestProcessesMemberPool:
    """The processes backend runs the whole run on one member pool."""

    def test_one_executor_per_run(self, setup, tmp_path, monkeypatch):
        _, background, runner = setup
        entered = []
        enter = TaskPool.__enter__

        def counting_enter(pool):
            entered.append(pool.kind)
            return enter(pool)

        monkeypatch.setattr(TaskPool, "__enter__", counting_enter)
        result = EnsembleEngine(
            runner,
            config(convergence_tolerance=1.0),  # two stages: 4 -> 8
            tmp_path / "wf",
            backend=ProcessesBackend(n_workers=2),
        ).run(background)
        # checked at 4, compared at 8: two stages
        assert [count for count, _ in result.convergence_history] == [8]
        assert entered == ["pemodel"]

    def test_reused_engine_folds_nothing_from_the_last_run(self, setup, tmp_path):
        """A second run() starts from nothing: no old member file or record."""
        model, background, runner = setup
        other = model.run(background, 86400.0)  # a different mean state
        cfg = config(convergence_tolerance=1.0)
        engine = EnsembleEngine(
            runner, cfg, tmp_path / "reused", backend=ProcessesBackend(n_workers=2)
        )
        engine.run(background)
        second = engine.run(other)
        fresh = EnsembleEngine(
            runner, cfg, tmp_path / "fresh", backend=ProcessesBackend(n_workers=2)
        )
        expected = fresh.run(other)
        assert second.ensemble_size == expected.ensemble_size == 8
        assert sorted(second.member_ids) == sorted(expected.member_ids)
        reused = anomaly_columns_by_member(engine)
        for member, column in anomaly_columns_by_member(fresh).items():
            assert np.array_equal(reused[member], column), member
        history = engine.status.attempt_counts("pemodel")
        assert all(counts == {TaskStatus.SUCCESS: 1} for counts in history.values())


class TestProgressMonitor:
    def test_batched_progress_in_member_units(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            backend=BatchedBackend(batch_size=3),
        )
        result = engine.run(background)
        report = ProgressMonitor(
            engine.status, {"pemodel": result.ensemble_size}
        ).report("pemodel")
        assert report.succeeded == result.ensemble_size
        assert report.complete
        assert report.pending == 0

    def test_staged_growth_with_partial_batches_not_overcounted(
        self, setup, tmp_path
    ):
        """Stages of 4 batched in threes write 3+1, 3+1 -- exactly 8 members.

        A uniform batch_size weight would scale the 4 records to 12/8;
        the records name their members, so the monitor needs no weight.
        """
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(),  # grows 4 -> 8 with tolerance 0.9
            tmp_path / "wf",
            backend=BatchedBackend(batch_size=3),
        )
        result = engine.run(background)
        assert result.ensemble_size == 8
        report = ProgressMonitor(
            engine.status, {"pemodel": result.ensemble_size}
        ).report("pemodel")
        assert report.succeeded == 8
        assert report.pending == 0
        assert report.complete
        assert report.eta_seconds is not None  # exact sizes: not stale

    def test_reused_engine_restarts_store_and_batch_bookkeeping(
        self, setup, tmp_path
    ):
        """A second run() neither dies on the store tail nor over-counts."""
        _, background, runner = setup
        engine = EnsembleEngine(
            runner, config(), tmp_path / "wf", backend=BatchedBackend(batch_size=3)
        )
        first = engine.run(background)
        second = engine.run(background)
        assert second.member_ids == first.member_ids
        assert np.array_equal(second.subspace.modes, first.subspace.modes)
        report = ProgressMonitor(
            engine.status, {"pemodel": second.ensemble_size}
        ).report("pemodel")
        assert report.succeeded == second.ensemble_size
        assert report.complete

    def test_serial_progress_per_member(self, setup, tmp_path):
        _, background, runner = setup
        engine = EnsembleEngine(
            runner,
            config(max_ensemble_size=4, convergence_tolerance=1.0),
            tmp_path / "wf",
            backend=SerialBackend(),
        )
        result = engine.run(background)
        report = ProgressMonitor(
            engine.status, {"pemodel": result.ensemble_size}
        ).report("pemodel")
        assert report.succeeded == result.ensemble_size
        assert report.complete
        assert report.pending == 0
