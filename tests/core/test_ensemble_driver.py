"""Tests for the ensemble runner and the ESSE driver (fast, tiny grids)."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    ESSEConfig,
    ESSEDriver,
    EnsembleRunner,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.util import threads as threads_module


@pytest.fixture(scope="module")
def tiny_setup():
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=8, seed=0
    )
    return model, background, subspace


class TestEnsembleRunner:
    def _runner(self, model, subspace, duration=4 * 400.0):
        perturber = PerturbationGenerator(model.layout, subspace, root_seed=5)
        return EnsembleRunner(model, perturber, duration, root_seed=5)

    def test_central_forecast_advances_time(self, tiny_setup):
        model, background, subspace = tiny_setup
        runner = self._runner(model, subspace)
        central = runner.central_forecast(background)
        assert central.time > background.time

    def test_member_forecast_ok(self, tiny_setup):
        model, background, subspace = tiny_setup
        runner = self._runner(model, subspace)
        res = runner.run_member(background, 0)
        assert res.ok
        assert res.forecast.shape == (model.layout.size,)

    def test_members_distinct_from_central(self, tiny_setup):
        model, background, subspace = tiny_setup
        runner = self._runner(model, subspace)
        central = model.to_vector(runner.central_forecast(background))
        res = runner.run_member(background, 0)
        assert not np.allclose(res.forecast, central)

    def test_member_reproducible(self, tiny_setup):
        model, background, subspace = tiny_setup
        a = self._runner(model, subspace).run_member(background, 3)
        b = self._runner(model, subspace).run_member(background, 3)
        assert np.array_equal(a.forecast, b.forecast)

    def test_failure_captured_not_raised(self, tiny_setup):
        model, background, subspace = tiny_setup
        runner = self._runner(model, subspace)
        bad = background.copy()
        bad.u = model.grid.apply_mask(np.full(model.grid.shape2d, np.nan))
        res = runner.run_member(bad, 0)
        assert not res.ok
        assert "FloatingPointError" in res.error

    def test_run_members_batch(self, tiny_setup):
        model, background, subspace = tiny_setup
        runner = self._runner(model, subspace)
        results = runner.run_members_batched(background, [0, 1, 2])
        assert [r.member_index for r in results] == [0, 1, 2]
        for res in results:
            single = runner.run_member(background, res.member_index)
            assert np.array_equal(res.forecast, single.forecast)

    def test_duration_validation(self, tiny_setup):
        model, _, subspace = tiny_setup
        perturber = PerturbationGenerator(model.layout, subspace, root_seed=5)
        with pytest.raises(ValueError, match="duration"):
            EnsembleRunner(model, perturber, 0.0, root_seed=5)


class TestESSEConfig:
    def test_stage_sizes_geometric(self):
        cfg = ESSEConfig(initial_ensemble_size=10, growth_factor=2.0, max_ensemble_size=50)
        assert cfg.stage_sizes() == [10, 20, 40, 50]

    def test_single_stage_when_initial_is_max(self):
        cfg = ESSEConfig(initial_ensemble_size=16, max_ensemble_size=16)
        assert cfg.stage_sizes() == [16]

    def test_validation(self):
        with pytest.raises(ValueError):
            ESSEConfig(initial_ensemble_size=1)
        with pytest.raises(ValueError):
            ESSEConfig(growth_factor=1.0)
        with pytest.raises(ValueError):
            ESSEConfig(initial_ensemble_size=20, max_ensemble_size=10)
        with pytest.raises(ValueError):
            ESSEConfig(max_subspace_rank=0)


class TestDriver:
    def test_forecast_produces_subspace(self, tiny_setup):
        model, background, subspace = tiny_setup
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=4,
                max_ensemble_size=8,
                convergence_tolerance=0.5,
                max_subspace_rank=6,
            ),
            root_seed=1,
        )
        fc = driver.forecast(background, subspace, duration=4 * 400.0)
        assert fc.ensemble_size >= 4
        assert fc.subspace.rank <= 6
        assert fc.member_forecasts.shape[0] == fc.ensemble_size
        assert fc.wall_seconds > 0

    def test_convergence_stops_growth(self, tiny_setup):
        """A loose tolerance converges at the first comparison (N=8)."""
        model, background, subspace = tiny_setup
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=4,
                max_ensemble_size=64,
                convergence_tolerance=0.05,
            ),
            root_seed=1,
        )
        fc = driver.forecast(background, subspace, duration=2 * 400.0)
        assert fc.converged
        assert fc.ensemble_size == 8  # stopped after the second stage

    def test_deadline_stops_growth(self, tiny_setup):
        model, background, subspace = tiny_setup
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=4,
                max_ensemble_size=512,
                convergence_tolerance=1.0,
                deadline_seconds=0.0,  # expire immediately after stage 1
            ),
            root_seed=1,
        )
        fc = driver.forecast(background, subspace, duration=2 * 400.0)
        assert not fc.converged
        assert fc.ensemble_size <= 8

    def test_history_grows_with_stages(self, tiny_setup):
        model, background, subspace = tiny_setup
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=4,
                max_ensemble_size=16,
                convergence_tolerance=1.0,  # never converge
            ),
            root_seed=1,
        )
        fc = driver.forecast(background, subspace, duration=2 * 400.0)
        assert len(fc.convergence_history) == 2  # (8 vs 4), (16 vs 8)
        assert fc.ensemble_size == 16

    def test_mapper_maps_over_member_batches(self, tiny_setup):
        """``mapper`` sees one item per vectorized batch, ragged tail included."""
        model, background, subspace = tiny_setup
        seen = []

        def mapper(fn, batches):
            batches = list(batches)
            seen.extend(list(b) for b in batches)
            return [fn(b) for b in batches]

        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=5,
                max_ensemble_size=10,
                convergence_tolerance=1.0,
            ),
            root_seed=1,
            batch_size=3,
        )
        mapped = driver.forecast(background, subspace, 2 * 400.0, mapper=mapper)
        assert seen == [[0, 1, 2], [3, 4], [5, 6, 7], [8, 9]]
        plain = driver.forecast(background, subspace, 2 * 400.0)
        assert mapped.member_ids == plain.member_ids == tuple(range(10))
        assert np.array_equal(mapped.member_forecasts, plain.member_forecasts)

    def test_batch_size_validation(self, tiny_setup):
        with pytest.raises(ValueError, match="batch_size"):
            ESSEDriver(tiny_setup[0], batch_size=0)


BOMB = 4  # blows up in the second batch of the first stage: a worker thread's


def ragged_driver(model, batch_size):
    """N 5 -> 10, never converging: ragged stages at any batch size."""
    return ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=5,
            max_ensemble_size=10,
            convergence_tolerance=1.0,
            max_subspace_rank=6,
        ),
        root_seed=1,
        batch_size=batch_size,
    )


class TestBatchThreads:
    """The default path steps batches on threads; ``mapper=map`` is the reference."""

    @pytest.fixture()
    def traced_batches(self, monkeypatch):
        """Record each batch's results and the thread that stepped it."""
        seen = []
        batched = EnsembleRunner.run_members_batched

        def recording(self, mean_state, indices):
            results = batched(self, mean_state, indices)
            seen.append((threading.current_thread(), results))
            return results

        monkeypatch.setattr(EnsembleRunner, "run_members_batched", recording)
        return seen

    @pytest.fixture()
    def bomb(self, monkeypatch):
        member_state = PerturbationGenerator.member_state

        def planted(self, mean, member_index):
            state = member_state(self, mean, member_index)
            return state * 1e9 if member_index == BOMB else state

        monkeypatch.setattr(PerturbationGenerator, "member_state", planted)

    @staticmethod
    def assert_same_forecast(fc, ref):
        assert fc.member_ids == ref.member_ids
        assert fc.failed_members == ref.failed_members
        assert fc.convergence_history == ref.convergence_history
        assert np.array_equal(fc.member_forecasts, ref.member_forecasts)
        assert np.array_equal(fc.subspace.modes, ref.subspace.modes)
        assert np.array_equal(fc.subspace.sigmas, ref.subspace.sigmas)

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("batch_size", [3, 2])
    def test_threads_equal_map_bit_for_bit(
        self, tiny_setup, monkeypatch, traced_batches, width, batch_size
    ):
        model, background, subspace = tiny_setup
        driver = ragged_driver(model, batch_size)
        reference = driver.forecast(background, subspace, 2 * 400.0, mapper=map)
        assert {t for t, _ in traced_batches} == {threading.main_thread()}
        traced_batches.clear()
        monkeypatch.setattr(threads_module, "_usable_cpus", lambda: width)
        threaded = driver.forecast(background, subspace, 2 * 400.0)
        self.assert_same_forecast(threaded, reference)
        assert threaded.member_ids == tuple(range(10))
        assert {t for t, _ in traced_batches} - {threading.main_thread()}

    def test_more_threads_than_cores_under_fast_switching(
        self, tiny_setup, monkeypatch
    ):
        """One-member batches on 3 threads, the interpreter switching every 10 us."""
        model, background, subspace = tiny_setup
        driver = ragged_driver(model, 1)
        reference = driver.forecast(background, subspace, 2 * 400.0, mapper=map)
        monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = driver.forecast(background, subspace, 2 * 400.0)
        finally:
            sys.setswitchinterval(interval)
        self.assert_same_forecast(threaded, reference)

    @pytest.mark.parametrize("width", [2, 3])
    def test_blow_up_on_a_worker_thread(
        self, tiny_setup, monkeypatch, traced_batches, bomb, width
    ):
        model, background, subspace = tiny_setup
        driver = ragged_driver(model, 3)
        reference = driver.forecast(background, subspace, 8 * 400.0, mapper=map)
        errors = {r.member_index: r.error for _, rs in traced_batches for r in rs}
        traced_batches.clear()
        monkeypatch.setattr(threads_module, "_usable_cpus", lambda: width)
        threaded = driver.forecast(background, subspace, 8 * 400.0)
        self.assert_same_forecast(threaded, reference)
        assert threaded.failed_members == (BOMB,)
        (where,) = [t for t, rs in traced_batches for r in rs if r.member_index == BOMB]
        assert where is not threading.main_thread()
        threaded_errors = {
            r.member_index: r.error for _, rs in traced_batches for r in rs
        }
        assert threaded_errors == errors
        assert "FloatingPointError" in errors[BOMB]

    def test_worker_exception_reaches_the_caller(self, tiny_setup, monkeypatch):
        model, background, subspace = tiny_setup
        batched = EnsembleRunner.run_members_batched

        def failing(self, mean_state, indices):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker broke")
            return batched(self, mean_state, indices)

        monkeypatch.setattr(EnsembleRunner, "run_members_batched", failing)
        monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="worker broke"):
            ragged_driver(model, 3).forecast(background, subspace, 2 * 400.0)

    def test_one_usable_cpu_starts_no_thread(self, tiny_setup, monkeypatch):
        model, background, subspace = tiny_setup

        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was built on one CPU")

        monkeypatch.setattr(threads_module, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 1)
        reference = ragged_driver(model, 3).forecast(
            background, subspace, 2 * 400.0, mapper=map
        )
        fc = ragged_driver(model, 3).forecast(background, subspace, 2 * 400.0)
        self.assert_same_forecast(fc, reference)

    def test_width_follows_the_affinity_mask(self, tiny_setup, monkeypatch):
        """Unpatched, a pool is built exactly when the mask has two CPUs."""
        model, background, subspace = tiny_setup
        pools = []
        executor = threads_module.ThreadPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return executor(*args, **kwargs)

        monkeypatch.setattr(threads_module, "ThreadPoolExecutor", counting)
        ragged_driver(model, 3).forecast(background, subspace, 2 * 400.0)
        cpus = len(os.sched_getaffinity(0))
        assert pools == ([1, 1] if cpus > 1 else [])  # two batches per stage
