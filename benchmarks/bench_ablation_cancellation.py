"""Ablation: cancellation policy on convergence (Sec 4.1).

"If the convergence test succeeds, the remaining ensemble members ... are
canceled, and depending on the time constraints ... either the ensemble
calculation concludes immediately or the remaining ensemble results
already calculated are diffed, another SVD calculation is performed and
all available results are used."

IMMEDIATE minimizes latency; DRAIN_RUNNING uses the nearly-free extra
members for a better final subspace.

Sized so that convergence leaves members behind: two workers and a pool
kept three times the stage ahead (24 members submitted for the stage
that grows to 8), so at the check most of the pool is still queued.
With four workers at the default margin of 1.5 every submitted member
has started by the check and there is nothing to cancel.
"""

import pytest

from conftest import print_table
from repro.core import ESSEConfig
from repro.workflow import CancellationPolicy, ParallelESSEWorkflow


def run_policies(setup, tmp_path):
    runner = setup["runner"]
    background = setup["background"]
    config = ESSEConfig(
        initial_ensemble_size=4,
        max_ensemble_size=48,
        convergence_tolerance=0.85,
        max_subspace_rank=8,
    )
    out = {}
    for policy in (CancellationPolicy.IMMEDIATE, CancellationPolicy.DRAIN_RUNNING):
        out[policy] = ParallelESSEWorkflow(
            runner,
            config,
            tmp_path / policy.value,
            n_workers=2,
            cancellation=policy,
            pool_margin=3.0,
        ).run(background)
    return out


def test_ablation_cancellation_policy(benchmark, small_esse_setup, tmp_path):
    results = benchmark.pedantic(
        lambda: run_policies(small_esse_setup, tmp_path), rounds=1, iterations=1
    )

    rows = []
    for policy, r in results.items():
        rows.append(
            [
                policy.value,
                r.ensemble_size,
                r.n_completed,
                r.n_cancelled,
                f"{r.wall_seconds:.2f} s",
                len(r.events_of("final_svd")),
            ]
        )
    print_table(
        "Ablation: cancellation policy after convergence",
        ["policy", "subspace N", "completed", "cancelled", "wall", "final SVDs"],
        rows,
    )

    immediate = results[CancellationPolicy.IMMEDIATE]
    drain = results[CancellationPolicy.DRAIN_RUNNING]
    assert immediate.converged and drain.converged
    # IMMEDIATE never runs the catch-all final SVD
    assert len(immediate.events_of("final_svd")) == 0
    # DRAIN folds in at least as many members as IMMEDIATE used
    assert drain.ensemble_size >= immediate.ensemble_size
    # both cancel queued members out of the 48-member pool
    assert immediate.n_cancelled > 0 and drain.n_cancelled > 0
    assert immediate.n_completed < 48
