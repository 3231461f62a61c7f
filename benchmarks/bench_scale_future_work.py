"""Sec 7 (future work): scaling to 1000-10000 members.

"Future more involved experiments are expected to scale from 1000 to
10000 or more ESSE ensemble members (and even more acoustic calculations).
We are interested in seeing how queuing systems and resource managers
handle such a workload in a short time interval."

The DES answers this for the calibrated home cluster.
"""

from conftest import print_table
from repro.sched import EnsembleCampaign, mseas_cluster
from repro.sched.schedulers import SGEPolicy


def run_scaling():
    out = {}
    for n in (600, 1000, 10000):
        campaign = EnsembleCampaign(mseas_cluster(), policy=SGEPolicy())
        out[n] = campaign.run(campaign.ensemble_specs(n))
    return out


def test_scale_to_10000_members(benchmark):
    stats = benchmark.pedantic(run_scaling, rounds=1, iterations=1)

    rows = [
        [
            n,
            2 * n,
            f"{s.makespan_minutes:.0f} min",
            f"{s.makespan_minutes / 60:.1f} h",
            f"{100 * s.core_utilization:.0f}%",
        ]
        for n, s in stats.items()
    ]
    print_table(
        "Sec 7: ESSE campaign scaling on the 210-core home cluster",
        ["members", "jobs", "makespan", "hours", "core util"],
        rows,
    )

    # scaling stays near-linear: 10000 members ~ 16.7x the 600-member time
    ratio = stats[10000].makespan_seconds / stats[600].makespan_seconds
    assert 14.0 < ratio < 18.0
    # the scheduler keeps the cluster busy at every scale
    for s in stats.values():
        assert s.core_utilization > 0.85

