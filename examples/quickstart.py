"""Quickstart: one ESSE forecast/assimilation cycle in a few seconds.

Runs the full Fig 2 pipeline on a coarse synthetic Monterey Bay domain:

1. spin up a background ocean state,
2. build an initial error subspace and a twin-experiment "truth",
3. run an adaptive-size stochastic ensemble until the error subspace
   converges,
4. assimilate an AOSN-II-like observation batch,
5. report the uncertainty forecast and the analysis skill.
"""

import numpy as np

from repro.core import (
    ESSEConfig,
    ESSEDriver,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.obs.network import aosn2_network
from repro.ocean import PEModel, StochasticForcing
from repro.ocean.bathymetry import monterey_grid


def main() -> None:
    # 1. model + background state --------------------------------------
    grid = monterey_grid(nx=20, ny=16, nz=3)
    model = PEModel(grid=grid)
    layout = model.layout
    print(f"domain: {grid.ny}x{grid.nx}x{grid.nz}, state dim {layout.size}")
    background = model.run(model.rest_state(), 2 * 86400.0)

    # 2. initial uncertainty + twin truth --------------------------------
    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=12, seed=1
    )
    perturber = PerturbationGenerator(layout, subspace, root_seed=31337)
    truth0 = model.from_vector(
        perturber.member_state(model.to_vector(background), 0),
        time=background.time,
    )
    truth_model = PEModel(
        grid=grid, noise=StochasticForcing(grid, rng=np.random.default_rng(999))
    )
    duration = 0.5 * 86400.0
    truth = truth_model.run(truth0, duration)

    # 3. adaptive ensemble uncertainty forecast ----------------------------
    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=8,
            max_ensemble_size=32,
            convergence_tolerance=0.95,
            max_subspace_rank=12,
        ),
        root_seed=42,
    )
    forecast = driver.forecast(background, subspace, duration=duration)
    assert forecast.failure_count == len(forecast.failed_members)
    print(
        f"ensemble: N={forecast.ensemble_size}, converged={forecast.converged}, "
        f"failures={forecast.failure_count}"
    )
    for n, rho in forecast.convergence_history:
        print(f"  similarity rho at N={n:3d}: {rho:.4f}")

    # 4. assimilate one observation batch -----------------------------------
    network = aosn2_network(grid, layout, rng=np.random.default_rng(7))
    batch = network.observe(truth)
    by_instrument = batch.operator.by_instrument()
    assert sum(by_instrument.values()) == batch.size, by_instrument
    print(f"observations: {batch.size} ({by_instrument})")
    analysis = driver.assimilate(forecast, batch.operator)

    # 5. report ---------------------------------------------------------------
    x_truth = model.to_vector(truth)
    e_fc = np.linalg.norm(layout.normalize(model.to_vector(forecast.central) - x_truth))
    e_an = np.linalg.norm(layout.normalize(analysis.mean - x_truth))
    print(f"innovation RMS {analysis.innovation_rms:.4f} -> analysis RMS "
          f"{analysis.analysis_rms:.4f}")
    print(f"true state error {e_fc:.2f} -> {e_an:.2f} "
          f"({100 * (1 - e_an / e_fc):.0f}% reduction)")
    # the headline: assimilating the observations moves the state toward
    # the truth
    assert e_an < e_fc, (e_fc, e_an)
    var = forecast.subspace.variance_field() * np.asarray(layout.scales) ** 2
    sst_sigma = np.sqrt(layout.view(var, "temp")[0])
    print(f"forecast SST uncertainty: {sst_sigma[grid.mask].min():.3f} - "
          f"{sst_sigma[grid.mask].max():.3f} degC over the domain")


if __name__ == "__main__":
    main()
