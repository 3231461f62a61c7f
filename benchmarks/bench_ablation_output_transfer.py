"""Ablation (Sec 5.3.2): push vs pull vs two-stage output return.

The paper argues the push model's synchronized transfer bursts "can
seriously slow down the gateway nodes", a paced pull agent "perform[s]
much better", and a two-stage put amortizes connection setup through the
remote shared filesystem.  All three run over the same completion trace
and WAN/gateway model.
"""

import numpy as np

from conftest import print_table
from repro.sched.transfer import OutputReturnPlan, simulate_output_return


def run_all_plans():
    rng = np.random.default_rng(0)
    # 600 members finishing in a synchronized wave (job arrays started
    # together finish together) -- the paper's problematic regime
    times = np.sort(rng.uniform(3000.0, 3060.0, 600))
    return times, {
        plan: simulate_output_return(times, file_mb=11.0, plan=plan)
        for plan in OutputReturnPlan
    }


def test_ablation_output_transfer(benchmark):
    times, reports = benchmark.pedantic(run_all_plans, rounds=1, iterations=1)
    wave_end = float(times[-1])

    rows = []
    for plan, r in reports.items():
        rows.append(
            [
                plan.value,
                f"{r.all_home_time - wave_end:.0f} s",
                r.peak_concurrent_streams,
                f"{r.mean_file_delay:.0f} s",
                r.transfers_started,
            ]
        )
    print_table(
        "Sec 5.3.2 ablation: returning 600 x 11 MB outputs after a "
        "synchronized wave",
        ["plan", "drain after wave", "peak streams", "mean delay", "transfers"],
        rows,
    )

    push = reports[OutputReturnPlan.PUSH]
    pull = reports[OutputReturnPlan.PULL]
    two = reports[OutputReturnPlan.TWO_STAGE]
    drain = {r.plan: r.all_home_time - wave_end for r in reports.values()}
    # push floods the gateway; pull stays paced
    assert push.peak_concurrent_streams > 50
    assert pull.peak_concurrent_streams <= 8
    # paper: pull "perform[s] much better" than the push burst
    assert drain[OutputReturnPlan.PULL] < 0.5 * drain[OutputReturnPlan.PUSH]
    # two-stage batches transfers by ~batch_size and drains fastest
    assert two.transfers_started < 20
    assert drain[OutputReturnPlan.TWO_STAGE] <= drain[OutputReturnPlan.PULL]
