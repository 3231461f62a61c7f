"""Sec 5.2.1 (acoustics): 6000+ ~3-minute acoustic jobs, no job arrays.

"The ESSE calculation was followed by more than 6000 ocean acoustics
realizations -- each of which executed for approximately 3 minutes -- in
this case no job arrays were used and the system handled all 6000+ jobs
without any problem whatsoever."

Two parts: (a) the scheduler-scale campaign through the calibrated DES,
(b) a real (scaled-down) acoustic-climate ensemble through the normal-mode
solver, timing actual singleton cost.
"""

import pytest

from conftest import print_table
from repro.acoustics import AcousticClimate, acoustic_climate_tasks
from repro.sched import EnsembleCampaign, mseas_cluster
from repro.sched.schedulers import SGEPolicy

N_JOBS = 6000


def run_acoustic_campaign():
    campaign = EnsembleCampaign(
        mseas_cluster(), policy=SGEPolicy(), as_job_array=False
    )
    return campaign.run(campaign.acoustic_specs(N_JOBS))


def test_acoustics_6000_campaign(benchmark):
    stats = benchmark.pedantic(run_acoustic_campaign, rounds=1, iterations=1)
    print_table(
        "Sec 5.2.1: 6000 acoustic singletons on 210 cores (DES)",
        ["jobs", "mean runtime", "makespan", "mean wait", "paper"],
        [
            [
                stats.job_count,
                f"{stats.mean_runtime_by_kind['acoustic']:.0f} s",
                f"{stats.makespan_minutes:.0f} min",
                f"{stats.mean_wait_seconds / 60:.1f} min",
                "~3 min/job, 6000+ jobs, no problem",
            ]
        ],
    )
    assert stats.job_count == N_JOBS
    # each job ~3 minutes
    assert stats.mean_runtime_by_kind["acoustic"] == pytest.approx(180.0, rel=0.1)
    # ideal makespan = 6000 * 180 / 210 cores = 85.7 min; overhead < 20%
    ideal = N_JOBS * 180.0 / 210 / 60
    assert ideal <= stats.makespan_minutes < 1.2 * ideal


def test_real_acoustic_singletons(benchmark, small_esse_setup):
    """Actual normal-mode TL singletons: verify many-task feasibility."""
    grid = small_esse_setup["grid"]
    model = small_esse_setup["model"]
    state = small_esse_setup["background"]
    tasks = acoustic_climate_tasks(
        grid, n_slices=4, frequencies=(100.0, 200.0), source_depths=(15.0, 60.0)
    )

    def run_climate():
        return AcousticClimate(grid, tasks).run(state, n_ranges=10, max_depth=140.0)

    climate = benchmark.pedantic(run_climate, rounds=1, iterations=1)
    per_task_ms = 1000.0 * benchmark.stats.stats.mean / len(tasks)
    print_table(
        "Real acoustic-climate singletons (normal-mode TL)",
        ["tasks", "completed", "failed", "per-task cost"],
        [
            [
                len(tasks),
                climate.completed,
                len(climate.failures),
                f"{per_task_ms:.1f} ms",
            ]
        ],
    )
    assert climate.completed == len(tasks)
    stats = climate.tl_statistics()
    assert 30.0 < stats["mean"] < 160.0
