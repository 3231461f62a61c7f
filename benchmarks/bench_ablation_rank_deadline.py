"""Ablations: subspace rank selection and the forecast deadline Tmax.

- *Rank selection* (Sec 3.1: "the dominant error modes (based on a
  comparison of the singular values)"): a fixed rank cap vs an
  energy-based cutoff changes how much sampling noise enters the analysis.
- *Deadline* (Sec 4: "until the time Tmax available for the forecast
  expires"): a hard wall-clock budget trades ensemble size (and subspace
  quality) for timeliness -- the defining constraint of real-time
  forecasting (Sec 4 point 1).
"""

from conftest import print_table
from repro.core import ESSEConfig, ESSEDriver


def run_rank_sweep(setup):
    model, background, subspace = (
        setup["model"],
        setup["background"],
        setup["subspace"],
    )
    out = {}
    for label, rank, energy in [
        ("rank 4", 4, 0.9999),
        ("rank 8", 8, 0.9999),
        ("rank 16", 16, 0.9999),
        ("energy 90%", 64, 0.90),
        ("energy 99%", 64, 0.99),
    ]:
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=16,
                max_ensemble_size=16,  # fixed ensemble: isolate truncation
                convergence_tolerance=1.0,
                max_subspace_rank=rank,
                svd_energy=energy,
            ),
            root_seed=1,
        )
        out[label] = driver.forecast(background, subspace, duration=8 * 400.0)
    return out


def test_ablation_rank_selection(benchmark, small_esse_setup):
    results = benchmark.pedantic(
        lambda: run_rank_sweep(small_esse_setup), rounds=1, iterations=1
    )

    rows = []
    for label, fc in results.items():
        sub = fc.subspace
        rows.append(
            [
                label,
                sub.rank,
                f"{sub.total_variance:.2f}",
                f"{sub.sigmas[0]:.2f}",
                f"{sub.sigmas[-1]:.2f}",
            ]
        )
    print_table(
        "Ablation: subspace truncation (N=16 fixed)",
        ["selection", "retained rank", "total var", "sigma_1", "sigma_p"],
        rows,
    )

    # fixed-rank caps are monotone in retained variance
    assert (
        results["rank 4"].subspace.total_variance
        <= results["rank 8"].subspace.total_variance
        <= results["rank 16"].subspace.total_variance
    )
    # energy cutoffs adapt the rank to the spectrum
    assert (
        results["energy 90%"].subspace.rank
        < results["energy 99%"].subspace.rank
    )
    # every variant keeps the dominant mode identical (same leading sigma)
    leading = {f"{fc.subspace.sigmas[0]:.6f}" for fc in results.values()}
    assert len(leading) == 1


def run_deadline_sweep(setup):
    model, background, subspace = (
        setup["model"],
        setup["background"],
        setup["subspace"],
    )
    out = {}
    for label, deadline in [
        ("tight (0 s)", 0.0),
        ("moderate (5 s)", 5.0),
        ("unlimited", None),
    ]:
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=4,
                max_ensemble_size=32,
                convergence_tolerance=1.0,  # never converges: deadline rules
                max_subspace_rank=8,
                deadline_seconds=deadline,
            ),
            root_seed=1,
        )
        out[label] = driver.forecast(background, subspace, duration=4 * 400.0)
    return out


def test_ablation_deadline(benchmark, small_esse_setup):
    results = benchmark.pedantic(
        lambda: run_deadline_sweep(small_esse_setup), rounds=1, iterations=1
    )

    rows = [
        [
            label,
            fc.ensemble_size,
            f"{fc.wall_seconds:.2f} s",
            "yes" if fc.converged else "no",
        ]
        for label, fc in results.items()
    ]
    print_table(
        "Ablation: forecast deadline Tmax (tolerance unreachable)",
        ["deadline", "members", "wall", "converged"],
        rows,
    )

    tight = results["tight (0 s)"]
    unlimited = results["unlimited"]
    # the deadline caps the ensemble; no deadline runs to Nmax
    assert tight.ensemble_size < unlimited.ensemble_size
    assert unlimited.ensemble_size == 32
    # a truncated ensemble still yields a usable subspace (timeliness wins)
    assert tight.subspace.rank >= 1
