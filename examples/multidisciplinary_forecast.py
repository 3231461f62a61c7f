"""A multidisciplinary forecast: physics, biology, acoustics, bulletin.

The paper's title promises *multidisciplinary* ocean science; this example
runs the full interdisciplinary chain of one forecast cycle:

1. ESSE physical uncertainty forecast (adaptive ensemble),
2. one-way-coupled phytoplankton bloom along the central forecast,
3. acoustic transmission loss through the forecast ocean,
4. ensemble verification against a twin truth,
5. the distributable forecast bulletin with candidate selection.
"""

import numpy as np

from repro.acoustics import extract_section, transmission_loss
from repro.core import (
    ESSEConfig,
    ESSEDriver,
    PerturbationGenerator,
    synthetic_initial_subspace,
    verify_ensemble,
)
from repro.obs.network import aosn2_network
from repro.ocean import PEModel, StochasticForcing
from repro.ocean.bathymetry import monterey_bathymetry, monterey_grid
from repro.ocean.biology import PhytoplanktonModel
from repro.realtime import generate_product


def main() -> None:
    grid = monterey_grid(nx=24, ny=20, nz=4)
    bathy = monterey_bathymetry(nx=24, ny=20)
    model = PEModel(grid=grid)
    layout = model.layout
    background = model.run(model.rest_state(), 3 * 86400.0)
    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=12, seed=1
    )

    # twin truth for verification
    perturber = PerturbationGenerator(layout, subspace, root_seed=31337)
    truth_model = PEModel(
        grid=grid, noise=StochasticForcing(grid, rng=np.random.default_rng(99))
    )
    duration = 86400.0
    truth = truth_model.run(
        model.from_vector(
            perturber.member_state(model.to_vector(background), 0),
            time=background.time,
        ),
        duration,
    )

    # 1. physical uncertainty forecast ------------------------------------
    driver = ESSEDriver(
        model,
        ESSEConfig(initial_ensemble_size=8, max_ensemble_size=24,
                   convergence_tolerance=0.93, max_subspace_rank=12),
        root_seed=42,
    )
    forecast = driver.forecast(background, subspace, duration=duration)
    print(f"physics: ensemble N={forecast.ensemble_size}, "
          f"converged={forecast.converged}")

    # 2. biology along the central forecast ---------------------------------
    bio = PhytoplanktonModel(model)
    phyto, _ = bio.run_along(background, duration)
    sfc = bio.surface_chlorophyll(phyto)[grid.mask]
    print(f"biology: surface chlorophyll {sfc.min():.2f}-{sfc.max():.2f} "
          f"mg/m^3 (mean {sfc.mean():.2f}) after {duration / 3600:.0f} h")
    assert np.all(np.isfinite(sfc)) and 0.0 < sfc.min() <= sfc.max() < 10.0

    # 3. acoustics through the forecast ocean --------------------------------
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy
    section = extract_section(
        grid, forecast.central, (0.65 * lx, 0.55 * ly), (0.1 * lx, 0.55 * ly),
        n_ranges=14, max_depth=300.0, bathymetry=bathy.depth,
    )
    tl = transmission_loss(section, 200.0, source_depth=30.0)
    print(f"acoustics: TL over the {section.length / 1000:.0f} km section "
          f"spans {tl.tl.min():.0f}-{tl.tl.max():.0f} dB "
          f"(waveguide depth {section.water_depth.min():.0f}-"
          f"{section.water_depth.max():.0f} m)")

    # 4. ensemble verification vs the twin truth ------------------------------
    sst_members = np.stack(
        [layout.view(m, "temp")[0][grid.mask] for m in forecast.member_forecasts]
    )
    sst_truth = truth.temp[0][grid.mask]
    report = verify_ensemble(sst_members, sst_truth)
    print(f"verification (SST): {report.render()}")
    scores = (report.rmse, report.bias, report.spread_skill, report.crps)
    assert np.all(np.isfinite(scores)), report
    assert abs(report.bias) <= report.rmse < 5.0, report  # degC, after one day
    assert report.crps > 0.0 and report.spread_skill > 0.0, report

    # 5. the bulletin ----------------------------------------------------------
    network = aosn2_network(grid, layout, rng=np.random.default_rng(7))
    batch = network.observe(truth)
    product = generate_product(model, forecast, batch.operator, cycle_index=1)
    print("\n" + product.render())


if __name__ == "__main__":
    main()
