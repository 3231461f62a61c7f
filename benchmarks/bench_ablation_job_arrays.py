"""Ablation: job arrays vs singleton submissions (Secs 4.2, 5.2.1).

"For both SGE and Condor we used job arrays to lessen the load on the
scheduler" -- but restartability favours one-job-per-index submission, and
the 6000-task acoustic campaign used no arrays at all.  The ablation
quantifies the scheduler-load cost of each choice, in the scheduling
simulator and on the real member pool (one task per member against one
task per batch of members).
"""

import numpy as np

from conftest import print_table
from repro.sched import EnsembleCampaign, mseas_cluster
from repro.sched.schedulers import SGEPolicy
from repro.telemetry.clock import MONOTONIC
from repro.workflow import FaultInjector, RetryPolicy, StatusDirectory
from repro.workflow.parallel import MemberPool

#: Members of the real-pool comparison, and its batch sizes: one task per
#: member against the engine's default batch.
POOL_MEMBERS = 24
POOL_BATCHES = (1, 8)


def run_submission_modes():
    out = {}
    for label, as_array in (("job array", True), ("singletons", False)):
        campaign = EnsembleCampaign(
            mseas_cluster(), policy=SGEPolicy(), as_job_array=as_array
        )
        out[label] = campaign.run(campaign.acoustic_specs(6000))
    return out


def test_ablation_job_arrays(benchmark):
    stats = benchmark.pedantic(run_submission_modes, rounds=1, iterations=1)

    rows = [
        [
            label,
            f"{s.makespan_minutes:.1f} min",
            f"{s.mean_wait_seconds / 60:.1f} min",
            s.sim_events,
        ]
        for label, s in stats.items()
    ]
    print_table(
        "Ablation: 6000 acoustic singletons, array vs per-job submission",
        ["submission", "makespan", "mean queue wait", "scheduler events"],
        rows,
    )

    array, single = stats["job array"], stats["singletons"]
    # per-job submission loads the scheduler more (the reason arrays are
    # used, Sec 4.2) ...
    assert single.sim_events > array.sim_events
    # ... but the system copes: makespan essentially unchanged ("the
    # system handled all 6000+ jobs without any problem whatsoever")
    assert single.makespan_minutes < 1.05 * array.makespan_minutes


def run_member_pool(setup, workdir, batch_size):
    """The same members through the real pool at one batch size."""
    faults = FaultInjector(crash_rate=0.1, seed=2)  # crashes 3 first attempts
    status = StatusDirectory(workdir / "status")
    forecasts = {}
    started = MONOTONIC()
    with MemberPool(
        setup["runner"],
        setup["background"],
        workdir,
        status,
        n_workers=2,
        max_members=POOL_MEMBERS,
        batch_size=batch_size,
        retry=RetryPolicy(max_attempts=4, backoff_base_s=0.001, seed=3),
        faults=faults,
    ) as members:
        members.propagate(
            range(POOL_MEMBERS),
            lambda res: forecasts.__setitem__(res.member_index, res.forecast),
        )
    return {
        "wall_s": MONOTONIC() - started,
        "files": len(list((workdir / "members").glob("*.npz"))),
        "records": len(list(status.root.glob("*.status"))),
        "retried": members.pool.n_retried,
        "forecasts": forecasts,
    }


def test_ablation_job_arrays_real_pool(small_esse_setup, tmp_path):
    runs = {
        batch: run_member_pool(small_esse_setup, tmp_path / f"batch{batch}", batch)
        for batch in POOL_BATCHES
    }
    print_table(
        f"Ablation: {POOL_MEMBERS} members through the real member pool "
        "(2 threads, crash rate 0.1)",
        ["members per task", "wall", "batch files", "status records", "retries"],
        [
            [batch, f"{r['wall_s']:.3f} s", r["files"], r["records"], r["retried"]]
            for batch, r in runs.items()
        ],
    )
    single, array = (runs[batch] for batch in POOL_BATCHES)
    # the array writes fewer files and records for the same members ...
    assert array["files"] < single["files"]
    assert array["records"] < single["records"]
    # ... while a crash retries its one member either way, and every
    # member's forecast is the same bits
    assert array["retried"] == single["retried"] > 0
    assert sorted(array["forecasts"]) == sorted(single["forecasts"]) == list(
        range(POOL_MEMBERS)
    )
    for index, forecast in single["forecasts"].items():
        assert np.array_equal(array["forecasts"][index], forecast)
