"""Integration test: the full ESSE cycle reduces error in a twin experiment.

This is the repository's end-to-end correctness check for the paper's
algorithm (Fig 2): truth drawn from the initial error subspace, ensemble
uncertainty forecast with adaptive sizing, assimilation of an AOSN-II-like
observation batch, and verification that the analysis beats the forecast.
"""

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


@pytest.fixture(scope="module")
def twin():
    grid = monterey_grid(nx=20, ny=16, nz=3)
    model = PEModel(grid=grid)
    layout = model.layout
    background = model.run(model.rest_state(), 2 * 86400.0)

    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=12, seed=1
    )
    # Truth = background + a draw from the same subspace, run with noise.
    perturber = PerturbationGenerator(layout, subspace, root_seed=31337)
    x_truth0 = perturber.member_state(model.to_vector(background), 0)
    truth_model = PEModel(
        grid=grid, noise=StochasticForcing(grid, rng=np.random.default_rng(999))
    )
    duration = 0.5 * 86400.0
    truth = truth_model.run(
        model.from_vector(x_truth0, time=background.time), duration
    )

    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=8,
            max_ensemble_size=32,
            convergence_tolerance=0.9,
            max_subspace_rank=12,
        ),
        root_seed=42,
    )
    forecast = driver.forecast(background, subspace, duration=duration)
    network = aosn2_network(grid, layout, rng=np.random.default_rng(7))
    batch = network.observe(truth)
    analysis = driver.assimilate(forecast, batch.operator)
    return {
        "model": model,
        "layout": layout,
        "grid": grid,
        "truth": truth,
        "forecast": forecast,
        "analysis": analysis,
        "batch": batch,
    }


class TestForecastStage:
    def test_all_members_survive(self, twin):
        assert twin["forecast"].failure_count == 0

    def test_similarity_history_recorded(self, twin):
        history = twin["forecast"].convergence_history
        assert len(history) >= 1
        assert all(0.0 <= rho <= 1.0 for _, rho in history)

    def test_spread_covers_truth_error(self, twin):
        """The predicted uncertainty must be the right order of magnitude."""
        model, layout = twin["model"], twin["layout"]
        x_truth = model.to_vector(twin["truth"])
        x_fc = model.to_vector(twin["forecast"].central)
        err2 = np.sum(layout.normalize(x_truth - x_fc) ** 2)
        predicted = twin["forecast"].subspace.total_variance
        assert 0.05 * err2 < predicted < 20.0 * err2


class TestAnalysisStage:
    def test_observation_fit_improves(self, twin):
        an = twin["analysis"]
        assert an.analysis_rms < an.innovation_rms

    def test_total_state_error_decreases(self, twin):
        model, layout = twin["model"], twin["layout"]
        x_truth = model.to_vector(twin["truth"])
        e_fc = np.linalg.norm(
            layout.normalize(model.to_vector(twin["forecast"].central) - x_truth)
        )
        e_an = np.linalg.norm(layout.normalize(twin["analysis"].mean - x_truth))
        assert e_an < e_fc

    def test_observed_field_error_decreases(self, twin):
        model, layout = twin["model"], twin["layout"]
        x_truth = model.to_vector(twin["truth"])
        x_fc = model.to_vector(twin["forecast"].central)
        sl = layout.slice_of("temp")
        e_fc = np.sqrt(np.mean((x_fc[sl] - x_truth[sl]) ** 2))
        e_an = np.sqrt(np.mean((twin["analysis"].mean[sl] - x_truth[sl]) ** 2))
        assert e_an < e_fc

    def test_posterior_variance_reduced(self, twin):
        assert (
            twin["analysis"].subspace.total_variance
            < twin["forecast"].subspace.total_variance
        )

    def test_analysis_state_is_valid_model_state(self, twin):
        model = twin["model"]
        state = model.from_vector(twin["analysis"].mean)
        grid = model.grid
        for name, shape in [("u", grid.shape2d), ("eta", grid.shape2d), ("temp", grid.shape3d)]:
            field = getattr(state, name)
            assert field.shape == shape
            assert np.all(np.isfinite(field[..., grid.mask]))


class TestUncertaintyFields:
    def test_sst_uncertainty_field_positive_over_ocean(self, twin):
        """The Figs 5-6 quantity: pointwise forecast std-dev of SST."""
        layout, grid = twin["layout"], twin["grid"]
        var = twin["forecast"].subspace.variance_field()
        # de-normalize the variance: multiply by scale^2
        var_phys = var * np.asarray(layout.scales) ** 2
        sst_sigma = np.sqrt(layout.view(var_phys, "temp")[0])
        assert np.all(sst_sigma[grid.mask] > 0)
        assert 0.01 < sst_sigma[grid.mask].max() < 5.0
