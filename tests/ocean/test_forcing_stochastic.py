"""Unit tests for atmospheric and stochastic forcing."""

import numpy as np
import pytest

from repro.ocean.forcing import AtmosphericForcing, upwelling_wind_stress
from repro.ocean.grid import demo_grid
from repro.ocean.stochastic import StochasticForcing


@pytest.fixture()
def grid():
    return demo_grid(nx=16, ny=14, nz=3)


class TestWindStress:
    def test_equatorward_alongshore(self, grid):
        tau_x, tau_y = upwelling_wind_stress(grid)
        assert tau_y[grid.mask].max() < 0  # southward everywhere

    def test_masked_on_land(self, grid):
        tau_x, tau_y = upwelling_wind_stress(grid)
        assert np.all(tau_x[~grid.mask] == 0)
        assert np.all(tau_y[~grid.mask] == 0)

    def test_amplitude_scales(self, grid):
        _, t1 = upwelling_wind_stress(grid, amplitude=0.05)
        _, t2 = upwelling_wind_stress(grid, amplitude=0.10)
        assert np.allclose(t2, 2.0 * t1)


class TestAtmosphericForcing:
    def test_synoptic_modulation(self, grid):
        f = AtmosphericForcing(grid, synoptic_amplitude=0.5)
        _, ty0 = f.wind_stress(0.0)
        _, ty1 = f.wind_stress(f.synoptic_period / 4.0)  # sin peak
        wet = grid.mask
        assert np.abs(ty1[wet]).max() > np.abs(ty0[wet]).max()

    def test_steady_when_amplitude_zero(self, grid):
        f = AtmosphericForcing(grid, synoptic_amplitude=0.0)
        _, a = f.wind_stress(0.0)
        _, b = f.wind_stress(1e5)
        assert np.allclose(a, b)

    def test_heat_flux_daily_cycle_has_zero_mean(self, grid):
        f = AtmosphericForcing(grid, synoptic_amplitude=0.0)
        times = np.arange(0, 86400, 400.0)
        wet_j, wet_i = np.nonzero(grid.mask)
        j, i = wet_j[0], wet_i[0]
        series = [f.heat_flux(t)[j, i] for t in times]
        # daily cosine + slow synoptic; mean over one day is near zero
        assert abs(np.mean(series)) < 0.35 * f.heat_flux_amplitude

    def test_validation(self, grid):
        with pytest.raises(ValueError, match="synoptic_period"):
            AtmosphericForcing(grid, synoptic_period=0.0)
        with pytest.raises(ValueError, match="synoptic_amplitude"):
            AtmosphericForcing(grid, synoptic_amplitude=2.0)


class TestStochasticForcing:
    def test_quiet_is_inactive(self, grid):
        assert not StochasticForcing.quiet(grid).is_active()

    def test_default_is_active(self, grid):
        assert StochasticForcing(grid).is_active()

    def test_increments_masked(self, grid):
        n = StochasticForcing(grid, rng=np.random.default_rng(0))
        block = n.increments(400.0)  # rows: u, v, eta, nz T, nz S
        assert block.shape == (3 + 2 * grid.nz, *grid.shape2d)
        assert np.all(block[:, ~grid.mask] == 0)
        assert np.all(block[:, grid.mask].std(axis=1) > 0)

    def test_tracer_noise_decays_with_depth(self, grid):
        n = StochasticForcing(grid, rng=np.random.default_rng(0))
        stds = []
        for _ in range(60):
            dT = n.increments(400.0)[3 : 3 + grid.nz]
            stds.append([dT[k][grid.mask].std() for k in range(grid.nz)])
        mean_std = np.mean(stds, axis=0)
        assert mean_std[0] > mean_std[-1]

    def test_scaling_with_sqrt_dt(self, grid):
        """Wiener increments scale like sqrt(dt)."""
        draws = 200
        n1 = StochasticForcing(grid, rng=np.random.default_rng(1))
        n2 = StochasticForcing(grid, rng=np.random.default_rng(1))
        s1 = np.std([n1.increments(100.0)[2][grid.mask] for _ in range(draws)])
        s2 = np.std([n2.increments(400.0)[2][grid.mask] for _ in range(draws)])
        assert s2 / s1 == pytest.approx(2.0, rel=0.15)

    def test_negative_amplitude_rejected(self, grid):
        with pytest.raises(ValueError):
            StochasticForcing(grid, momentum_amplitude=-1.0)

    def test_salt_noise_smaller_than_temp(self, grid):
        n = StochasticForcing(grid, rng=np.random.default_rng(3))
        t_stds, s_stds = [], []
        for _ in range(50):
            block = n.increments(400.0)
            dT, dS = block[3 : 3 + grid.nz], block[3 + grid.nz :]
            t_stds.append(dT[0][grid.mask].std())
            s_stds.append(dS[0][grid.mask].std())
        assert np.mean(s_stds) < 0.5 * np.mean(t_stds)
