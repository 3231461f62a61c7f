"""Unit tests for atmospheric and stochastic forcing."""

import numpy as np
import pytest

from repro.ocean import forcing
from repro.ocean.forcing import (
    HEAT_FLUX_AMPLITUDE,
    SYNOPTIC_PERIOD,
    AtmosphericForcing,
    upwelling_wind_stress,
)
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


class TestAtmosphericForcing:
    def test_synoptic_modulation(self, grid):
        f = AtmosphericForcing(grid)
        _, ty0 = f.wind_stress(0.0)
        _, ty1 = f.wind_stress(SYNOPTIC_PERIOD / 4.0)  # sin peak
        wet = grid.mask
        assert np.abs(ty1[wet]).max() > np.abs(ty0[wet]).max()

    def test_steady_when_amplitude_zero(self, grid, monkeypatch):
        monkeypatch.setattr(forcing, "SYNOPTIC_AMPLITUDE", 0.0)
        f = AtmosphericForcing(grid)
        _, a = f.wind_stress(0.0)
        _, b = f.wind_stress(1e5)
        assert np.allclose(a, b)

    def test_written_into_buffers_with_the_same_bits(self, grid):
        """A run's workspace takes the fields: same products, no new arrays."""
        f = AtmosphericForcing(grid)
        tau_x0, tau_y0 = upwelling_wind_stress(grid)
        wet = grid.mask.astype(float)
        tau_x, tau_y, heat = np.full((3, *grid.shape2d), np.nan)
        for t in (0.0, 12345.0, 3.1e5):
            factor = 1.0 + forcing.SYNOPTIC_AMPLITUDE * np.sin(2.0 * np.pi * t / SYNOPTIC_PERIOD)
            daily = np.cos(2.0 * np.pi * (t % 86400.0) / 86400.0 - np.pi)
            synoptic = 0.3 * np.sin(2.0 * np.pi * t / SYNOPTIC_PERIOD)
            written = (*f.wind_stress(t, (tau_x, tau_y)), f.heat_flux(t, heat))
            fresh = (*f.wind_stress(t), f.heat_flux(t))
            heat_ref = wet * (HEAT_FLUX_AMPLITUDE * (daily + synoptic))
            expected = (tau_x0 * factor, tau_y0 * factor, heat_ref)
            for out, buffer, new, ref in zip(written, (tau_x, tau_y, heat), fresh, expected):
                assert out is buffer
                assert np.array_equal(buffer.view(np.int64), ref.view(np.int64))
                assert np.array_equal(new.view(np.int64), ref.view(np.int64))

    def test_heat_flux_daily_cycle_has_zero_mean(self, grid):
        f = AtmosphericForcing(grid)
        times = np.arange(0, 86400, 400.0)
        wet_j, wet_i = np.nonzero(grid.mask)
        j, i = wet_j[0], wet_i[0]
        series = [f.heat_flux(t)[j, i] for t in times]
        # daily cosine + slow synoptic; mean over one day is near zero
        assert abs(np.mean(series)) < 0.35 * HEAT_FLUX_AMPLITUDE


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
