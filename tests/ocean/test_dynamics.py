"""Unit tests for the shallow-water dynamics and its operators."""

import numpy as np
import pytest

from repro.ocean.dynamics import ShallowWaterDynamics, ddx, ddy, laplacian
from repro.ocean.grid import OceanGrid, demo_grid


@pytest.fixture()
def grid():
    return demo_grid(nx=20, ny=18, nz=2)


@pytest.fixture()
def dyn(grid):
    return ShallowWaterDynamics(grid)


class TestOperators:
    def test_ddx_linear_exact(self):
        x = np.arange(10) * 2.0
        fld = np.tile(3.0 * x, (6, 1))
        assert np.allclose(ddx(fld, 2.0), 3.0)

    def test_ddy_linear_exact(self):
        y = np.arange(6)[:, None] * 4.0
        fld = np.tile(0.5 * y, (1, 10))
        assert np.allclose(ddy(fld, 4.0), 0.5)

    def test_ddx_3d_broadcast(self):
        fld = np.random.default_rng(0).random((3, 6, 10))
        out = ddx(fld, 1.0)
        assert out.shape == fld.shape
        for k in range(3):
            assert np.allclose(out[k], ddx(fld[k], 1.0))

    def test_laplacian_quadratic_interior(self):
        x = np.arange(12) * 1.0
        y = np.arange(10)[:, None] * 1.0
        fld = x**2 + y**2
        lap = laplacian(fld, 1.0, 1.0)
        assert np.allclose(lap[2:-2, 2:-2], 4.0)

    def test_laplacian_of_constant_is_zero(self):
        assert np.allclose(laplacian(np.full((8, 8), 7.0), 1.0, 1.0), 0.0)


class TestConstruction:
    def test_wave_speed(self, dyn):
        expected = np.sqrt(dyn.g_reduced * dyn.h0)
        assert dyn.gravity_wave_speed == pytest.approx(expected)

    def test_max_stable_dt_scales_with_spacing(self, grid):
        d1 = ShallowWaterDynamics(grid).max_stable_dt()
        g2 = OceanGrid(
            nx=grid.nx, ny=grid.ny, dx=2 * grid.dx, dy=2 * grid.dy,
            z_levels=grid.z_levels, mask=grid.mask,
        )
        d2 = ShallowWaterDynamics(g2).max_stable_dt()
        assert d2 == pytest.approx(2 * d1)

    def test_rejects_nonpositive_h0(self, grid):
        with pytest.raises(ValueError, match="h0"):
            ShallowWaterDynamics(grid, h0=0.0)

    def test_rejects_negative_viscosity(self, grid):
        with pytest.raises(ValueError):
            ShallowWaterDynamics(grid, viscosity=-1.0)


class TestStepDynamics:
    def test_rest_stays_at_rest(self, grid, dyn):
        zeros = np.zeros(grid.shape2d)
        step = dyn.step_constants(400.0)
        u, v, eta, deta = dyn.step_dynamics(zeros, zeros, zeros, zeros, zeros, step)
        assert np.allclose(u, 0) and np.allclose(v, 0) and np.allclose(eta, 0)
        assert np.allclose(deta, 0)

    def test_gravity_wave_stability(self, grid, dyn):
        """Noise-seeded free waves must decay, not grow (FB scheme)."""
        rng = np.random.default_rng(0)
        eta = grid.apply_mask(rng.standard_normal(grid.shape2d) * 1e-2)
        u = np.zeros(grid.shape2d)
        v = np.zeros(grid.shape2d)
        tau = np.zeros(grid.shape2d)
        step = dyn.step_constants(400.0, dyn.sponge_factors(400.0))
        amp0 = np.abs(eta).max()
        for _ in range(600):
            u, v, eta, _ = dyn.step_dynamics(u, v, eta, tau, tau, step)
            u, v, eta = dyn.enforce_boundaries(u, v, eta, step)
        assert np.all(np.isfinite(eta))
        assert np.abs(eta).max() < 20 * amp0  # bounded (in practice decays)

    def test_wind_accelerates_flow(self, grid, dyn):
        zeros = np.zeros(grid.shape2d)
        tau_x = grid.apply_mask(np.full(grid.shape2d, 0.05))
        step = dyn.step_constants(400.0)
        u, v, eta, _ = dyn.step_dynamics(zeros, zeros, zeros, tau_x, zeros, step)
        assert u[grid.mask].max() > 0

    def test_land_velocity_zeroed_by_boundaries(self, grid, dyn):
        ones = grid.apply_mask(np.ones(grid.shape2d)) + 1.0  # nonzero on land
        u, v, eta = dyn.enforce_boundaries(ones, ones, ones)
        assert np.all(u[~grid.mask] == 0)
        assert np.all(eta[~grid.mask] == 0)

    def test_mass_conservation_without_sponge(self, grid):
        """Flux-form continuity conserves total volume (no sponge/diffusion)."""
        dyn = ShallowWaterDynamics(grid, eta_diffusivity=0.0)
        rng = np.random.default_rng(1)
        eta = grid.apply_mask(rng.standard_normal(grid.shape2d) * 0.01)
        u = grid.apply_mask(rng.standard_normal(grid.shape2d) * 0.01)
        v = grid.apply_mask(rng.standard_normal(grid.shape2d) * 0.01)
        tau = np.zeros(grid.shape2d)
        vol0 = eta[grid.mask].sum()
        step = dyn.step_constants(200.0)
        for _ in range(50):
            u, v, eta, _ = dyn.step_dynamics(u, v, eta, tau, tau, step)
            u, v, eta = dyn.enforce_boundaries(u, v, eta)
        # interior divergence rearranges mass; edge one-sided stencils leak
        # only marginally
        assert eta[grid.mask].sum() == pytest.approx(vol0, abs=0.05 * max(abs(vol0), 1.0))


class TestSponge:
    def test_factors_in_unit_interval(self, dyn):
        s = dyn.sponge_factors(400.0)
        assert np.all(s > 0) and np.all(s <= 1.0)

    def test_interior_untouched(self, dyn, grid):
        s = dyn.sponge_factors(400.0)
        assert np.all(s[8:10, 8:12] == 1.0)

    def test_stronger_at_rim(self, dyn):
        s = dyn.sponge_factors(400.0)
        assert s[5, 0] < s[5, 3] <= 1.0
