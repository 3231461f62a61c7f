"""Coupled ocean-acoustics uncertainty (paper Secs 2.2 and 5.2.1).

Propagates ESSE ocean uncertainty into acoustic uncertainty: every
ensemble realization's (T, S) section is turned into a sound-speed section
and a normal-mode transmission-loss field, the coupled
physical-acoustical covariance is non-dimensionalized and factorized into
joint uncertainty modes, and a mini "acoustic climate" -- the paper's 6000+
independent short tasks, scaled down -- is executed over sources,
frequencies and slices.
"""

import time

import numpy as np

from repro.acoustics import (
    AcousticClimate,
    acoustic_climate_tasks,
    coupled_uncertainty_modes,
    extract_section,
    transmission_loss,
)
from repro.core import ESSEConfig, ESSEDriver, synthetic_initial_subspace
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid


def main() -> None:
    grid = monterey_grid(nx=24, ny=20, nz=5)
    model = PEModel(grid=grid)
    layout = model.layout
    background = model.run(model.rest_state(), 3 * 86400.0)
    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=12, seed=11
    )
    driver = ESSEDriver(
        model,
        ESSEConfig(initial_ensemble_size=10, max_ensemble_size=20,
                   convergence_tolerance=0.9, max_subspace_rank=12),
        root_seed=7,
    )
    print("running the ocean uncertainty ensemble...")
    forecast = driver.forecast(background, subspace, duration=0.5 * 86400.0)
    print(f"  {forecast.ensemble_size} ocean realizations")

    # -- TL ensemble along one section ---------------------------------
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy
    start, end = (0.55 * lx, 0.5 * ly), (0.1 * lx, 0.5 * ly)
    frequency, source_depth = 200.0, 30.0
    print(f"\nTL ensemble along one section ({frequency:.0f} Hz source at "
          f"{source_depth:.0f} m):")
    t0 = time.perf_counter()
    temp_sections, tl_fields = [], []
    for member in forecast.member_forecasts:
        state = model.from_vector(member)
        section = extract_section(grid, state, start, end, n_ranges=14,
                                  max_depth=200.0)
        field = transmission_loss(section, frequency, source_depth=source_depth)
        temp_sections.append(section.temperature)
        tl_fields.append(field)
    print(f"  {len(tl_fields)} TL realizations in "
          f"{time.perf_counter() - t0:.1f} s")
    tl_stack = np.stack([f.tl for f in tl_fields])
    tl_sigma = tl_stack.std(axis=0, ddof=1)
    print(f"  TL std-dev: median {np.median(tl_sigma):.2f} dB, "
          f"max {tl_sigma.max():.2f} dB")

    # -- coupled physical-acoustical modes ---------------------------------
    coupled = coupled_uncertainty_modes(np.stack(temp_sections), tl_fields)
    frac = coupled.coupling_fraction()
    # every joint mode carries some acoustic variance, none more than all
    assert np.all((frac > 0.0) & (frac <= 1.0)), frac
    print(f"\ncoupled physical-acoustical covariance: rank {coupled.n_modes}")
    print(f"  dominant mode explains "
          f"{100 * coupled.variances[0] / coupled.variances.sum():.0f}% of joint "
          f"variance; acoustic share of mode 1: {100 * frac[0]:.0f}%")
    print(f"  mean T-TL cross-covariance sign: "
          f"{'negative (warm -> quieter)' if coupled.cross_covariance().mean() < 0 else 'positive'}")

    # -- acoustic climate: many independent short tasks ----------------------
    central = forecast.central
    tasks = acoustic_climate_tasks(
        grid, n_slices=6, frequencies=(100.0, 200.0), source_depths=(15.0, 60.0)
    )
    print(f"\nacoustic climate: {len(tasks)} independent tasks "
          f"(the paper ran 6000+ of these after each ESSE forecast)")
    t0 = time.perf_counter()
    climate = AcousticClimate(grid, tasks).run(
        central, n_ranges=12, max_depth=200.0
    )
    stats = climate.tl_statistics()
    assert climate.completed == len(tasks) and np.isfinite(stats["mean"])
    print(f"  completed {climate.completed}/{len(tasks)} in "
          f"{time.perf_counter() - t0:.1f} s; "
          f"TL mean {stats['mean']:.1f} dB, spread {stats['std']:.1f} dB")


if __name__ == "__main__":
    main()
