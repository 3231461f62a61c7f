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
    RetryPolicy,
    SerialBackend,
    SharedEnsembleBuffer,
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
        assert make_backend("serial").members_per_task == 1
        assert make_backend("batched", batch_size=5).members_per_task == 5
        assert make_backend("batched", batch_size=5).status_kind == "pemodel_batch"


class TestSharedEnsembleBuffer:
    def test_columns_start_nan_and_round_trip(self):
        buffer = SharedEnsembleBuffer(10, 3)
        try:
            assert np.all(np.isnan(buffer.column(1)))
            buffer.column(1)[:] = np.arange(10.0)
            assert np.array_equal(buffer.column(1), np.arange(10.0))
            assert np.all(np.isnan(buffer.column(0)))  # siblings untouched
        finally:
            buffer.close()
            buffer.unlink()

    def test_attach_sees_owner_writes(self):
        buffer = SharedEnsembleBuffer(6, 2)
        try:
            buffer.column(0)[:] = 7.0
            view = SharedEnsembleBuffer.attach(
                buffer.name, buffer.state_dim, buffer.capacity
            )
            try:
                assert np.array_equal(view.column(0), np.full(6, 7.0))
            finally:
                view.close()
        finally:
            buffer.close()
            buffer.unlink()

    def test_feed_into_column_store_ships_each_column_once(self, tmp_path):
        """The process-backend handoff serializes nothing: the accumulator
        reads the shared-memory views, the store appends from the
        accumulator's view, and each member costs its column and its id."""
        from repro.core.covariance import AnomalyAccumulator
        from repro.core.state import FieldLayout, FieldSpec

        state_dim, members = 50, 6
        forecasts = np.random.default_rng(0).standard_normal((state_dim, members))
        layout = FieldLayout([FieldSpec("x", (state_dim,))])
        buffer = SharedEnsembleBuffer(state_dim, members)
        store = MemmapCovarianceStore(tmp_path)
        try:
            for k in range(members):  # worker side: each attempt writes once
                buffer.column(k)[:] = forecasts[:, k]
            accumulator = AnomalyAccumulator(layout, np.zeros(state_dim))
            shipped = 0
            for k in range(members):
                accumulator.add_member(k, buffer.column(k))
                if accumulator.count >= 2:
                    shipped += store.sync_from(accumulator.view())
                    store.publish()
            assert shipped == members * (8 * state_dim + 8)
            snapshot = store.read_safe()
            assert np.array_equal(np.asarray(snapshot.columns), forecasts)
        finally:
            store.close()
            buffer.close()
            buffer.unlink()

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            SharedEnsembleBuffer(0, 4)
        with pytest.raises(ValueError, match=">= 1"):
            SharedEnsembleBuffer(4, 0)


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
        done = engine.status.completed_indices("pemodel_batch")
        assert all(s is TaskStatus.SUCCESS for s in done.values())
        # Batching happens within each growth stage: stages of 4 then 4
        # more members, each split into ceil(4/3) = 2 batch tasks.
        assert result.ensemble_size == 8
        assert len(done) == 4


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
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, seed=0),
            faults=FaultInjector(corrupt_rate=0.4, seed=7),
        )
        result = engine.run(background)
        assert result.ensemble_size == 4
        assert not result.degraded
        # the half-written shm columns were caught (IO_FAILURE) and the
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
        report = engine.progress_monitor(
            expected_members=result.ensemble_size
        ).report("pemodel_batch")
        assert report.succeeded == result.ensemble_size
        assert report.complete
        assert report.pending == 0

    def test_staged_growth_with_partial_batches_not_overcounted(
        self, setup, tmp_path
    ):
        """Stages of 4 batched in threes write 3+1, 3+1 -- exactly 8 members.

        A uniform batch_size weight would scale the 4 records to 12/8;
        the engine hands the monitor the exact per-batch sizes instead.
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
        report = engine.progress_monitor(
            expected_members=result.ensemble_size
        ).report("pemodel_batch")
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
        report = engine.progress_monitor(
            expected_members=second.ensemble_size
        ).report("pemodel_batch")
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
        report = engine.progress_monitor(
            expected_members=result.ensemble_size
        ).report("pemodel")
        assert report.succeeded == result.ensemble_size
        assert report.complete
        assert report.pending == 0
