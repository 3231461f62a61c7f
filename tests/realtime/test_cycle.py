"""Integration test for the real-time forecast/assimilation cycle."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    ESSEConfig,
    ESSEDriver,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.obs.network import aosn2_network
from repro.ocean import PEModel, StochasticForcing
from repro.ocean.bathymetry import monterey_grid
from repro.realtime import ExperimentTimeline, RealTimeForecastCycle


def build_cycle(product_hook=None):
    """A 3-period twin cycle on a tiny grid; the cycle and its run() inputs."""
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    layout = model.layout
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=8, seed=2
    )
    perturber = PerturbationGenerator(layout, subspace, root_seed=777)
    truth0 = model.from_vector(
        perturber.member_state(model.to_vector(background), 0),
        time=background.time,
    )
    truth_model = PEModel(
        grid=grid, noise=StochasticForcing(grid, rng=np.random.default_rng(55))
    )
    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=6,
            max_ensemble_size=12,
            convergence_tolerance=0.85,
            max_subspace_rank=8,
        ),
        root_seed=4,
    )
    network = aosn2_network(grid, layout, rng=np.random.default_rng(9))
    timeline = ExperimentTimeline(
        t0=background.time, period_length=0.25 * 86400.0, n_periods=3
    )
    cycle = RealTimeForecastCycle(
        driver, truth_model, network, timeline, product_hook=product_hook
    )
    return cycle, (background, truth0, subspace)


@pytest.fixture(scope="module")
def cycle_run():
    cycle, inputs = build_cycle()
    records, final_state, final_subspace = cycle.run(*inputs)
    return records, final_state, final_subspace


class TestCycle:
    def test_one_record_per_period(self, cycle_run):
        records, _, _ = cycle_run
        assert [r.period_index for r in records] == [0, 1, 2]

    def test_analysis_beats_forecast_each_cycle(self, cycle_run):
        records, _, _ = cycle_run
        for r in records:
            assert r.analysis_rms <= r.innovation_rms

    def test_error_contained_over_cycles(self, cycle_run):
        """Sequential assimilation keeps the state error bounded."""
        records, _, _ = cycle_run
        first, last = records[0], records[-1]
        assert last.analysis_error < 2.0 * first.forecast_error

    def test_mean_error_reduction_positive(self, cycle_run):
        records, _, _ = cycle_run
        reductions = [r.error_reduction for r in records]
        assert np.mean(reductions) > 0.0

    def test_final_state_valid(self, cycle_run):
        _, final_state, final_subspace = cycle_run
        assert final_subspace.rank >= 1
        assert np.all(np.isfinite(final_state.temp))

    def test_nowcast_times_advance(self, cycle_run):
        records, _, _ = cycle_run
        times = [r.nowcast_time for r in records]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestPeriodMemory:
    def test_previous_forecast_is_freed_before_the_next(self):
        """Period k's ForecastResult is dead when period k+1's forecast starts."""
        results = []
        cycle, inputs = build_cycle(
            product_hook=lambda product, forecast: results.append(
                weakref.ref(forecast)
            )
        )
        alive = []
        forecast = cycle.driver.forecast

        def watched(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in results])
            return forecast(*args, **kwargs)

        cycle.driver.forecast = watched
        cycle.run(*inputs)
        assert alive == [[], [False], [False, False]]
        assert len(results) == 3
