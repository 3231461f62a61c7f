"""Unit tests for tracer dynamics and diagnostics."""

import numpy as np
import pytest

from repro.ocean.diagnostics import ensemble_std, kinetic_energy, max_current_speed
from repro.ocean.dynamics import SharedBlock
from repro.ocean.grid import demo_grid
from repro.ocean.tracers import TracerDynamics, climatological_profile


@pytest.fixture()
def grid():
    return demo_grid(nx=14, ny=12, nz=4)


@pytest.fixture()
def tracers(grid):
    return TracerDynamics(grid)


class TestClimatology:
    def test_monotone_profiles(self):
        z = np.linspace(0.0, 400.0, 20)
        temp, salt = climatological_profile(z)
        assert np.all(np.diff(temp) <= 0)  # cooler with depth
        assert np.all(np.diff(salt) >= 0)  # saltier with depth

    def test_limits(self):
        z = np.array([0.0, 5000.0])
        temp, salt = climatological_profile(z)
        assert temp[0] == pytest.approx(15.0, abs=1.0)
        assert temp[1] == pytest.approx(7.0, abs=0.5)


def tendencies(tracers, temp, salt, u, v, deta_dt, heat):
    """One state's tendencies through a workspace of its own."""
    work = tracers.workspace((), SharedBlock())
    np.copyto(work.heat, heat)
    return tracers.tendencies(temp, salt, u, v, deta_dt, work)


class TestTracerTendencies:
    def _zero_fields(self, grid):
        t_prof, s_prof = climatological_profile(np.asarray(grid.z_levels))
        temp = np.broadcast_to(t_prof[:, None, None], grid.shape3d).copy()
        salt = np.broadcast_to(s_prof[:, None, None], grid.shape3d).copy()
        zeros = np.zeros(grid.shape2d)
        return temp, salt, zeros

    def test_rest_climatology_is_steady(self, grid, tracers):
        temp, salt, zeros = self._zero_fields(grid)
        dT, dS = tendencies(tracers, temp, salt, zeros, zeros, zeros, zeros)
        assert np.allclose(dT[..., grid.mask], 0.0, atol=1e-12)
        assert np.allclose(dS[..., grid.mask], 0.0, atol=1e-12)

    def test_relaxation_pulls_back_to_climatology(self, grid, tracers):
        temp, salt, zeros = self._zero_fields(grid)
        warm = temp + 1.0
        dT, _ = tendencies(tracers, warm, salt, zeros, zeros, zeros, zeros)
        assert np.all(dT[..., grid.mask] < 0)

    def test_surface_heating_warms_top_level_only(self, grid, tracers):
        temp, salt, zeros = self._zero_fields(grid)
        heat = grid.apply_mask(np.full(grid.shape2d, 200.0))
        dT, _ = tendencies(tracers, temp, salt, zeros, zeros, zeros, heat)
        assert np.all(dT[0][grid.mask] > 0)
        assert np.allclose(dT[1:][..., grid.mask], 0.0, atol=1e-12)

    def test_upwelling_cools(self, grid, tracers):
        """Negative interface tendency (uplift) cools the thermocline."""
        temp, salt, zeros = self._zero_fields(grid)
        deta_dt = grid.apply_mask(np.full(grid.shape2d, -1e-4))
        dT, dS = tendencies(tracers, temp, salt, zeros, zeros, deta_dt, zeros)
        k = int(np.argmax(np.abs(np.gradient(temp[:, 6, 6]))))
        assert dT[k, 6, 6] < 0  # cooling at the thermocline
        assert dS[k, 6, 6] > 0  # and salinification


class TestDiagnostics:
    def test_rest_state_diagnostics(self, small_model):
        s = small_model.rest_state()
        grid = small_model.grid
        assert kinetic_energy(grid, s) == 0.0
        assert max_current_speed(grid, s) == 0.0

    def test_ensemble_std(self):
        rng = np.random.default_rng(0)
        stack = 2.0 + 0.5 * rng.standard_normal((300, 6, 7))
        sigma = ensemble_std(stack)
        assert sigma.shape == (6, 7)
        assert np.allclose(sigma, 0.5, rtol=0.25)

    def test_ensemble_std_requires_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            ensemble_std(np.zeros((1, 4, 4)))
