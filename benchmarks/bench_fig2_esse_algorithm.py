"""Fig 2: the ESSE algorithm -- convergence of the error subspace.

Runs the real adaptive-ensemble loop (perturb -> stochastic forecasts ->
diff -> SVD -> similarity test) and reports the similarity coefficient rho
as the ensemble grows: the quantity the Fig 2 convergence loop monitors.
Shape: rho increases with N and crosses a practical tolerance.
"""

from conftest import print_table
from repro.core import ESSEConfig, ESSEDriver


def test_fig2_esse_convergence(benchmark, small_esse_setup):
    model = small_esse_setup["model"]
    background = small_esse_setup["background"]
    subspace = small_esse_setup["subspace"]

    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=4,
            max_ensemble_size=64,
            convergence_tolerance=0.96,
            max_subspace_rank=8,
        ),
        root_seed=1,
    )

    forecast = benchmark.pedantic(
        lambda: driver.forecast(background, subspace, duration=8 * 400.0),
        rounds=1,
        iterations=1,
    )

    rows = [
        [n, f"{rho:.4f}"] for n, rho in forecast.convergence_history
    ]
    print_table(
        "Fig 2: subspace similarity rho vs ensemble size "
        f"(converged={forecast.converged} at N={forecast.ensemble_size})",
        ["N", "rho"],
        rows,
    )

    history = forecast.convergence_history
    assert len(history) >= 2
    rhos = [rho for _, rho in history]
    # similarity improves with ensemble size (monotone up to noise)
    assert rhos[-1] > rhos[0]
    assert all(0.0 <= r <= 1.0 for r in rhos)
    # the adaptive loop terminates: either converged or at Nmax
    assert forecast.converged or forecast.ensemble_size == 64
    # the subspace captures the leading uncertainty: top mode dominates
    sigmas = forecast.subspace.sigmas
    assert sigmas[0] > sigmas[-1]
