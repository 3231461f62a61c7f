"""Ablation: the ESSE SVD at growing ensemble sizes (Sec 4.1).

"The SVD and the convergence test are large calculations requiring a lot
of memory and time, especially for large N ... though the use of
SCALAPACK for distributed memory clusters may become necessary in the
future if our ensembles get too large."

The ablation times three routes to the ESSE truncation at the paper's
projected ensemble sizes (Sec 7 targets 1000-10000 members), on the full
AOSN-II state dimension: the dense LAPACK driver the paper worried about
(``lapack_svd``), the exact factorization in ensemble space that
``truncated_svd`` runs on tall input (an ``N x N`` Gram
eigensolve, then only the kept modes), and the randomized range-finder.
"""

import numpy as np

from conftest import print_table
from repro.telemetry.clock import MONOTONIC
from repro.util.linalg import lapack_svd, randomized_svd, truncated_svd

STATE_DIM = 34776  # the 42x36x10 default layout size
RANK = 60  # the default ESSE truncation


def esse_like_anomalies(rng, n_members: int) -> np.ndarray:
    """Low-rank decaying signal + noise floor: what ensembles produce."""
    signal_rank = 120
    u, _ = np.linalg.qr(rng.standard_normal((STATE_DIM, signal_rank)))
    sig = np.geomspace(5.0, 0.3, signal_rank)
    coeffs = rng.standard_normal((signal_rank, n_members))
    a = (u * sig) @ coeffs + 0.1 * rng.standard_normal((STATE_DIM, n_members))
    return a / np.sqrt(n_members - 1)


def run_sweep(clock=MONOTONIC):
    rng = np.random.default_rng(0)
    results = {}
    for n_members in (200, 600, 1200):
        a = esse_like_anomalies(rng, n_members)
        t0 = clock()
        _, s_exact, _ = lapack_svd(a, rank=RANK)
        t_lapack = clock() - t0
        t0 = clock()
        _, s_gram, _ = truncated_svd(a, rank=RANK)
        t_gram = clock() - t0
        t0 = clock()
        _, s_rand, _ = randomized_svd(a, rank=RANK, rng=rng)
        t_rand = clock() - t0
        np.testing.assert_allclose(s_gram, s_exact, rtol=1e-9)
        err = float(np.abs(s_rand - s_exact).max() / s_exact[0])
        results[n_members] = (t_lapack, t_gram, t_rand, err)
    return results


def test_ablation_svd_method(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = [
        [
            n,
            f"{t_lapack:.2f} s",
            f"{t_gram:.2f} s",
            f"{t_rand:.2f} s",
            f"{t_lapack / t_rand:.1f}x",
            f"{100 * err:.2f}%",
        ]
        for n, (t_lapack, t_gram, t_rand, err) in results.items()
    ]
    print_table(
        f"Ablation: routes to the rank-{RANK} SVD (n={STATE_DIM})",
        [
            "N members",
            "LAPACK gesdd",
            "exact, ensemble space (truncated_svd)",
            "randomized",
            "sketch vs LAPACK",
            "sketch sigma err",
        ],
        rows,
    )

    for n, (t_lapack, t_gram, t_rand, err) in results.items():
        # the sketch recovers the retained spectrum to sub-percent accuracy
        assert err < 0.05
    # the advantage grows with ensemble size -- the paper's exact worry
    speedups = {n: tl / tr for n, (tl, _, tr, _) in results.items()}
    assert speedups[1200] > 1.0
    assert speedups[1200] >= 0.8 * speedups[200]
