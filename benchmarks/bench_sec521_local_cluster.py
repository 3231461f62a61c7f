"""Sec 5.2.1: the 600-member ESSE campaign on the local cluster.

Paper observations reproduced here:

- "600 ensemble members pass through the ESSE workflow in ~77 mins in the
  all local I/O case and in ~86 mins in the mixed locality case";
- prestaging input files raised pert CPU utilization "from ~20% to ~100%";
- "Timings under Condor were between 10-20% slower" than SGE.
"""

from conftest import print_table
from repro.sched import EnsembleCampaign, mseas_cluster
from repro.sched.iomodel import IOConfiguration, IOMode
from repro.sched.schedulers import CondorPolicy, SGEPolicy

N_MEMBERS = 600


def run_campaigns() -> dict[str, object]:
    out = {}
    for label, policy, mode in [
        ("sge_local", SGEPolicy(), IOMode.PRESTAGED),
        ("sge_nfs", SGEPolicy(), IOMode.NFS),
        ("condor_local", CondorPolicy(), IOMode.PRESTAGED),
        ("condor_nfs", CondorPolicy(), IOMode.NFS),
    ]:
        campaign = EnsembleCampaign(
            mseas_cluster(), policy=policy, io_config=IOConfiguration(mode=mode)
        )
        out[label] = campaign.run(campaign.ensemble_specs(N_MEMBERS))
    return out


def test_sec521_local_cluster(benchmark):
    stats = benchmark.pedantic(run_campaigns, rounds=1, iterations=1)

    rows = []
    paper = {
        "sge_local": "~77 min",
        "sge_nfs": "~86 min",
        "condor_local": "10-20% over SGE",
        "condor_nfs": "10-20% over SGE",
    }
    for label, s in stats.items():
        rows.append(
            [
                label,
                f"{s.makespan_minutes:.1f} min",
                f"{100 * s.cpu_utilization_by_kind['pert']:.0f}%",
                f"{100 * s.cpu_utilization_by_kind['pemodel']:.0f}%",
                paper[label],
            ]
        )
    print_table(
        f"Sec 5.2.1: {N_MEMBERS}-member ESSE campaign, 210 cores",
        ["scenario", "makespan", "pert util", "pemodel util", "paper"],
        rows,
    )

    local, nfs = stats["sge_local"], stats["sge_nfs"]
    condor = stats["condor_local"]
    # makespans land in the paper's band
    assert 70.0 < local.makespan_minutes < 85.0  # paper ~77
    assert 80.0 < nfs.makespan_minutes < 95.0  # paper ~86
    assert nfs.makespan_minutes > local.makespan_minutes
    # prestaging boosts pert CPU utilization ~20% -> ~100%
    assert nfs.cpu_utilization_by_kind["pert"] < 0.3
    assert local.cpu_utilization_by_kind["pert"] > 0.7
    # pemodel barely changes ("does not [get] as much of a performance boost")
    assert (
        abs(
            local.cpu_utilization_by_kind["pemodel"]
            - nfs.cpu_utilization_by_kind["pemodel"]
        )
        < 0.15
    )
    # Condor 10-20% slower than SGE
    ratio = condor.makespan_minutes / local.makespan_minutes
    assert 1.05 < ratio < 1.35
