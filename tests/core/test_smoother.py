"""Tests for the one-lag ESSE smoother (reanalysis of past states)."""

import numpy as np
import pytest

from repro.core import (
    ESSEConfig,
    ESSEDriver,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.core.smoother import ESSESmoother
from repro.obs.network import aosn2_network
from repro.ocean import PEModel, StochasticForcing
from repro.ocean.bathymetry import monterey_grid


@pytest.fixture(scope="module")
def smoothing_setup():
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    layout = model.layout
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=8, seed=1
    )
    root_seed = 42
    # twin truth: a *different* draw from the same subspace at t0
    truth_perturber = PerturbationGenerator(layout, subspace, root_seed=31337)
    x_truth0 = truth_perturber.member_state(model.to_vector(background), 0)
    truth_model = PEModel(
        grid=grid, noise=StochasticForcing(grid, rng=np.random.default_rng(9))
    )
    duration = 8 * 400.0
    truth1 = truth_model.run(
        model.from_vector(x_truth0, time=background.time), duration
    )

    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=16,
            max_ensemble_size=32,
            convergence_tolerance=0.95,
            max_subspace_rank=8,
        ),
        root_seed=root_seed,
    )
    forecast = driver.forecast(background, subspace, duration=duration)
    network = aosn2_network(grid, layout, rng=np.random.default_rng(5))
    batch = network.observe(truth1)

    smoother = ESSESmoother(layout, root_seed=root_seed)
    result = smoother.smooth(
        model.to_vector(background), subspace, forecast, batch.operator
    )
    return {
        "model": model,
        "layout": layout,
        "background": background,
        "subspace": subspace,
        "x_truth0": x_truth0,
        "forecast": forecast,
        "batch": batch,
        "result": result,
        "root_seed": root_seed,
    }


class TestSmoother:
    def test_initial_error_reduced(self, smoothing_setup):
        """Future observations must improve the *past* state estimate."""
        s = smoothing_setup
        layout, model = s["layout"], s["model"]
        prior = model.to_vector(s["background"])
        e_prior = np.linalg.norm(layout.normalize(prior - s["x_truth0"]))
        e_smooth = np.linalg.norm(
            layout.normalize(s["result"].smoothed_initial_mean - s["x_truth0"])
        )
        assert e_smooth < e_prior

    def test_posterior_initial_subspace_shrinks(self, smoothing_setup):
        s = smoothing_setup
        # compare against the reconstructed prior t0 sample variance
        smoother = ESSESmoother(s["layout"], root_seed=s["root_seed"])
        z0 = smoother._initial_anomalies(
            s["model"].to_vector(s["background"]),
            s["subspace"],
            s["forecast"].member_ids,
        )
        prior_var = float(np.sum(z0**2))
        assert s["result"].initial_subspace.total_variance < prior_var

    def test_innovation_recorded(self, smoothing_setup):
        assert smoothing_setup["result"].innovation_rms > 0

    def test_subspace_modes_orthonormal(self, smoothing_setup):
        from repro.util.linalg import orthonormal_columns

        assert orthonormal_columns(
            smoothing_setup["result"].initial_subspace.modes, atol=1e-7
        )

    def test_matches_dense_cross_time_update(self, smoothing_setup):
        """Mean and posterior covariance equal the textbook dense update.

        The reference solves the m x m innovation covariance directly
        (``Z0 G^T (G G^T + R)^-1``), which the smoother never forms.
        """
        s = smoothing_setup
        layout, forecast, op = s["layout"], s["forecast"], s["batch"].operator
        prior = s["model"].to_vector(s["background"])
        z0 = ESSESmoother(layout, root_seed=s["root_seed"])._initial_anomalies(
            prior, s["subspace"], forecast.member_ids
        )
        central = s["model"].to_vector(forecast.central)
        n_members = forecast.member_forecasts.shape[0]
        z1 = layout.normalize((forecast.member_forecasts - central).T)
        z1 /= np.sqrt(n_members - 1)
        g = layout.denormalize(z1)[op.state_indices]  # H D Z1
        innovation_cov = g @ g.T + np.diag(op.noise_var)
        gain = z0 @ g.T @ np.linalg.inv(innovation_cov)
        increment = layout.denormalize(gain @ (op.values - central[op.state_indices]))
        expected_cov = z0 @ z0.T - gain @ g @ z0.T

        result = s["result"]
        np.testing.assert_allclose(
            result.smoothed_initial_mean - prior,
            increment,
            rtol=0,
            atol=1e-10 * np.abs(increment).max(),
        )
        post = result.initial_subspace
        np.testing.assert_allclose(
            (post.modes * post.variances) @ post.modes.T,
            expected_cov,
            rtol=0,
            atol=1e-10 * np.abs(expected_cov).max(),
        )

    def test_validation(self, smoothing_setup):
        s = smoothing_setup
        smoother = ESSESmoother(s["layout"], root_seed=s["root_seed"])
        with pytest.raises(ValueError, match="initial mean"):
            smoother.smooth(
                np.zeros(3), s["subspace"], s["forecast"], s["batch"].operator
            )
        with pytest.raises(ValueError, match="inflation"):
            ESSESmoother(s["layout"], root_seed=0, inflation=0.5)

    def test_wrong_seed_degrades_smoothing(self, smoothing_setup):
        """Reconstruction depends on the true root seed; a wrong seed
        decorrelates the cross-time statistics."""
        s = smoothing_setup
        layout, model = s["layout"], s["model"]
        wrong = ESSESmoother(layout, root_seed=s["root_seed"] + 1).smooth(
            model.to_vector(s["background"]),
            s["subspace"],
            s["forecast"],
            s["batch"].operator,
        )
        right_err = np.linalg.norm(
            layout.normalize(s["result"].smoothed_initial_mean - s["x_truth0"])
        )
        wrong_err = np.linalg.norm(
            layout.normalize(wrong.smoothed_initial_mean - s["x_truth0"])
        )
        assert right_err < wrong_err
