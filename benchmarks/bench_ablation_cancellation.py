"""Ablation: cancellation policy on convergence (Sec 4.1).

"If the convergence test succeeds, the remaining ensemble members ... are
canceled, and depending on the time constraints ... either the ensemble
calculation concludes immediately or the remaining ensemble results
already calculated are diffed, another SVD calculation is performed and
all available results are used."

IMMEDIATE minimizes latency; DRAIN_RUNNING uses the nearly-free extra
members for a better final subspace.

Sized so that convergence leaves members behind.  A pool task is a batch
of up to 8 members (the paper's Sec 4.2 job array), and a batch that has
started cannot be cancelled, so the pool must hold whole batches that no
worker has picked up yet when the test passes.  One worker and a pool
kept three times the stage ahead do that: the first stage (8 members) submits
batches 0-7, 8-15 and 16-23, the second (16) adds 24-31 to 40-47, and at
each check the one worker is busy with one batch while the later ones
wait.  The sizing before tasks were batches (4 initial members, two
workers) cancelled nothing in three of four runs: by the time it
converged, each batch it had submitted had been picked up by a worker.
"""

import pytest

from conftest import print_table
from repro.core import ESSEConfig
from repro.workflow import CancellationPolicy, ParallelESSEWorkflow


def run_policies(setup, tmp_path):
    runner = setup["runner"]
    background = setup["background"]
    config = ESSEConfig(
        initial_ensemble_size=8,
        max_ensemble_size=64,
        convergence_tolerance=0.85,
        max_subspace_rank=8,
    )
    out = {}
    for policy in (CancellationPolicy.IMMEDIATE, CancellationPolicy.DRAIN_RUNNING):
        out[policy] = ParallelESSEWorkflow(
            runner,
            config,
            tmp_path / policy.value,
            n_workers=1,
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
    # both cancel queued members out of the 64-member pool
    assert immediate.n_cancelled > 0 and drain.n_cancelled > 0
    assert immediate.n_completed < 64
