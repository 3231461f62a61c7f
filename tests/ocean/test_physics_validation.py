"""Physical validation of the shallow-water substrate.

The ESSE reproduction only needs qualitatively right mesoscale physics;
these tests pin the classic dynamical signatures so regressions in the
solver show up as physics, not just numbers.
"""

import numpy as np

from repro.ocean import PEModel
from repro.ocean.dynamics import G_REDUCED
from repro.ocean.grid import OceanGrid
from tests.ocean.conftest import CalmForcing


def closed_basin(nx=30, ny=30):
    mask = np.ones((ny, nx), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
    return OceanGrid(
        nx=nx, ny=ny, dx=3000.0, dy=3000.0, z_levels=(5.0, 50.0), mask=mask
    )


class TestGeostrophicAdjustment:
    def test_eta_anomaly_spins_up_rotational_flow(self):
        """A pressure bump under rotation adjusts toward a geostrophic
        vortex: flow along, not across, the eta contours."""
        grid = closed_basin()
        model = PEModel(grid=grid, forcing=CalmForcing(grid))
        state = model.rest_state()
        y, x = np.mgrid[0:grid.ny, 0:grid.nx]
        bump = 0.5 * np.exp(-(((x - 15) / 4.0) ** 2 + ((y - 15) / 4.0) ** 2))
        state.eta = grid.apply_mask(bump)
        # several inertial periods: f ~ 8.7e-5 -> T_inertial ~ 20 h
        out = model.run(state, 3 * 86400.0)
        wet = grid.mask
        # flow developed (weak: the bump partly diffuses/radiates away)
        speed = np.sqrt(out.u**2 + out.v**2)
        assert speed[wet].max() > 1e-4
        # geostrophic balance: u ~ -(g'/f) d(eta)/dy at the bump flanks
        from repro.ocean.dynamics import ddy

        g_over_f = G_REDUCED / grid.coriolis
        u_geo = -g_over_f * ddy(out.eta, grid.dy)
        interior = np.zeros_like(wet)
        interior[8:22, 8:22] = True
        interior &= wet
        corr = np.corrcoef(out.u[interior], u_geo[interior])[0, 1]
        assert corr > 0.8

    def test_anticyclone_around_high(self):
        """Northern hemisphere: clockwise flow around high pressure."""
        grid = closed_basin()
        model = PEModel(grid=grid, forcing=CalmForcing(grid))
        state = model.rest_state()
        y, x = np.mgrid[0:grid.ny, 0:grid.nx]
        state.eta = grid.apply_mask(
            0.5 * np.exp(-(((x - 15) / 4.0) ** 2 + ((y - 15) / 4.0) ** 2))
        )
        out = model.run(state, 3 * 86400.0)
        # east of the high: v < 0 (southward) for clockwise circulation
        east_v = out.v[13:18, 20:23].mean()
        west_v = out.v[13:18, 8:11].mean()
        assert east_v < 0 < west_v


class TestUpwellingResponse:
    def test_equatorward_wind_drops_coastal_interface(self):
        """Along-shore equatorward wind on an eastern boundary -> offshore
        Ekman transport -> interface uplift (eta < 0) at the coast."""
        from repro.ocean.bathymetry import monterey_grid

        grid = monterey_grid(nx=24, ny=20, nz=3)
        model = PEModel(grid=grid)
        out = model.run(model.rest_state(), 5 * 86400.0)
        wet = grid.mask
        # coastal strip: last 3 wet cells of each row
        coastal = np.zeros_like(wet)
        for j in range(grid.ny):
            ii = np.nonzero(wet[j])[0]
            if ii.size >= 3:
                coastal[j, ii[-3:]] = True
        offshore = wet & ~coastal
        assert out.eta[coastal].mean() < out.eta[offshore].mean()

    def test_upwelled_water_is_cold(self):
        from repro.ocean.bathymetry import monterey_grid

        grid = monterey_grid(nx=24, ny=20, nz=3)
        model = PEModel(grid=grid)
        out = model.run(model.rest_state(), 10 * 86400.0)
        wet = grid.mask
        coastal = np.zeros_like(wet)
        for j in range(grid.ny):
            ii = np.nonzero(wet[j])[0]
            if ii.size >= 3:
                coastal[j, ii[-3:]] = True
        offshore = wet & ~coastal
        sst = out.temp[0]
        assert sst[coastal].mean() < sst[offshore].mean()
