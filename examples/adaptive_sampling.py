"""Adaptive sampling: where should the gliders go next?

During AOSN-II the ESSE system "provide[d] suggestions for adaptive
sampling" in real time (paper Sec 6; Sec 7 names the intelligent
coordination of sampling networks as a prime MTC application).  This
example closes that loop in a twin experiment: the forecast error subspace
suggests the most uncertain locations, a virtual asset samples them, and
the resulting analysis is compared against spending the same observation
budget on a fixed uniform grid.
"""

import numpy as np

from repro.core import (
    ESSEConfig,
    ESSEDriver,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.obs import AdaptiveSampler, ObservationNetwork, SamplingSuggestion
from repro.obs.adaptive import suggest_sampling_locations
from repro.ocean import PEModel, StochasticForcing
from repro.ocean.bathymetry import monterey_grid


def main() -> None:
    grid = monterey_grid(nx=20, ny=16, nz=3)
    model = PEModel(grid=grid)
    layout = model.layout
    background = model.run(model.rest_state(), 2 * 86400.0)
    subspace = synthetic_initial_subspace(
        layout, grid.shape2d, grid.nz, rank=12, seed=1
    )
    perturber = PerturbationGenerator(layout, subspace, root_seed=31337)
    truth_model = PEModel(
        grid=grid, noise=StochasticForcing(grid, rng=np.random.default_rng(999))
    )
    truth = truth_model.run(
        model.from_vector(
            perturber.member_state(model.to_vector(background), 0),
            time=background.time,
        ),
        0.5 * 86400.0,
    )

    driver = ESSEDriver(
        model,
        ESSEConfig(initial_ensemble_size=8, max_ensemble_size=32,
                   convergence_tolerance=0.95, max_subspace_rank=12),
        root_seed=42,
    )
    forecast = driver.forecast(background, subspace, duration=0.5 * 86400.0)
    print(f"forecast ensemble N={forecast.ensemble_size}")

    budget = 16
    picks = suggest_sampling_locations(forecast.subspace, layout, grid, count=budget)
    print(f"\nESSE suggests sampling SST at (most informative first):")
    for p in picks:
        print(f"  (j={p.j:2d}, i={p.i:2d})  predicted sigma "
              f"{np.sqrt(p.predicted_variance):.3f} degC")

    # same budget, uniform placement for comparison
    wet_j, wet_i = np.nonzero(grid.mask)
    step = max(len(wet_j) // budget, 1)
    uniform = [
        SamplingSuggestion("temp", 0, int(wet_j[k]), int(wet_i[k]), 0.0)
        for k in range(0, budget * step, step)
    ][:budget]

    analysis = driver.analysis  # the one analysis engine, global configuration
    x_fc = model.to_vector(forecast.central)
    x_truth = model.to_vector(truth)
    results = {}
    for label, suggestions in (("adaptive", picks), ("uniform", uniform)):
        net = ObservationNetwork(
            grid, layout, [AdaptiveSampler(list(suggestions))],
            rng=np.random.default_rng(7),
        )
        batch = net.observe(truth)
        post = analysis.update(x_fc, forecast.subspace, batch.operator)
        err = np.linalg.norm(layout.normalize(post.mean - x_truth))
        results[label] = (post.subspace.total_variance, err)

    e0 = np.linalg.norm(layout.normalize(x_fc - x_truth))
    print(f"\nprior:    state error {e0:6.2f}, subspace variance "
          f"{forecast.subspace.total_variance:8.2f}")
    for label, (variance, err) in results.items():
        print(f"{label:9s} state error {err:6.2f}, posterior variance "
              f"{variance:8.2f}")
    gain = (results['uniform'][1] - results['adaptive'][1])
    print(f"\nadaptive placement of {budget} SST samples beats uniform by "
          f"{gain:.2f} error units "
          f"({100 * gain / results['uniform'][1]:.0f}%)")
    # the headline: the same budget, placed where ESSE is least certain,
    # leaves less error against the truth and less posterior variance
    assert results["adaptive"][1] < results["uniform"][1], results
    assert results["adaptive"][0] < results["uniform"][0], results


if __name__ == "__main__":
    main()
