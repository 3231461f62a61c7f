"""Ablation: ensemble-enlargement schedule (Sec 4: "enlarged (in stages)").

How aggressively should the pool grow from N toward Nmax when convergence
fails?  Small growth factors approach the minimal converged ensemble but
pay for many SVD/convergence checks and risk pipeline stalls; large
factors overshoot, wasting members.  Measured on the real ESSE loop
(members used, checks run) and costed on the DES cluster.
"""

from conftest import print_table
from repro.core import ESSEConfig, ESSEDriver
from repro.sched import EnsembleCampaign, mseas_cluster


def run_growth_sweep(setup):
    model = setup["model"]
    background = setup["background"]
    subspace = setup["subspace"]
    out = {}
    for growth in (1.25, 1.5, 2.0, 4.0):
        driver = ESSEDriver(
            model,
            ESSEConfig(
                initial_ensemble_size=8,
                growth_factor=growth,
                max_ensemble_size=64,
                convergence_tolerance=0.95,
                max_subspace_rank=8,
            ),
            root_seed=1,
        )
        fc = driver.forecast(background, subspace, duration=8 * 400.0)
        out[growth] = fc
    return out


def test_ablation_growth_schedule(benchmark, small_esse_setup):
    results = benchmark.pedantic(
        lambda: run_growth_sweep(small_esse_setup), rounds=1, iterations=1
    )

    cluster_cost = {}
    for growth, fc in results.items():
        campaign = EnsembleCampaign(mseas_cluster())
        stats = campaign.run(campaign.ensemble_specs(10 * fc.ensemble_size))
        cluster_cost[growth] = stats.makespan_minutes

    rows = []
    for growth, fc in results.items():
        rows.append(
            [
                f"x{growth}",
                fc.ensemble_size,
                len(fc.convergence_history),
                "yes" if fc.converged else "no",
                f"{fc.convergence_history[-1][1]:.4f}",
                f"{cluster_cost[growth]:.1f} min",
            ]
        )
    print_table(
        "Ablation: pool growth factor (tolerance 0.95, Nmax=64; cluster "
        "cost for a 10x-scaled campaign)",
        ["growth", "members used", "SVD checks", "converged", "final rho",
         "cluster makespan"],
        rows,
    )

    sizes = {g: fc.ensemble_size for g, fc in results.items()}
    # finer growth never uses more members than the coarsest
    assert sizes[1.25] <= sizes[4.0]
    # (note: finer growth may also *converge sooner by count* because the
    # sequential test compares largely-overlapping ensembles)
    # every schedule reaches a usable subspace and ran >= 1 check
    for fc in results.values():
        assert fc.subspace.rank >= 1
        assert len(fc.convergence_history) >= 1
