"""Tests for scheduler policies, the cluster scheduler and campaigns."""

import pytest

from repro.sched import (
    ClusterModel,
    ClusterScheduler,
    CondorPolicy,
    EnsembleCampaign,
    JobSpec,
    JobState,
    Node,
    NodeSpec,
    SGEPolicy,
    Simulator,
    mseas_cluster,
)
from repro.sched.iomodel import IOConfiguration, IOMode


def small_cluster(cores=4, speed=1.0):
    return ClusterModel(
        nodes=[Node(NodeSpec(name="n0", cores=cores, speed_factor=speed,
                             local_disk_mbps=250.0))],
        nfs_bandwidth_mbps=100.0,
    )


def quick_io(mode=IOMode.PRESTAGED):
    return IOConfiguration(
        mode=mode, pert_input_mb=10.0, pemodel_input_mb=10.0,
        output_mb=1.0, prestage_cost_s=0.0,
    )


class TestNodeAccounting:
    def test_acquire_release(self):
        node = Node(NodeSpec(name="n", cores=2))
        node.acquire()
        node.acquire()
        assert node.free_cores == 0
        with pytest.raises(RuntimeError, match="oversubscribed"):
            node.acquire()
        node.release()
        assert node.free_cores == 1

    def test_release_guard(self):
        node = Node(NodeSpec(name="n", cores=1))
        with pytest.raises(RuntimeError, match="released too many"):
            node.release()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(name="n", cores=0)
        with pytest.raises(ValueError):
            NodeSpec(name="n", cores=1, speed_factor=0.0)


class TestClusterScheduler:
    def test_jobs_complete(self):
        sim = Simulator()
        sched = ClusterScheduler(sim, small_cluster(), SGEPolicy(), quick_io())
        jobs = sched.submit(
            [JobSpec(kind="pemodel", index=i, cpu_seconds=100.0) for i in range(6)]
        )
        sim.run()
        assert all(j.state is JobState.DONE for j in jobs)

    def test_cores_limit_concurrency(self):
        """With 4 cores, 8 equal jobs finish in two waves."""
        sim = Simulator()
        sched = ClusterScheduler(sim, small_cluster(cores=4), SGEPolicy(), quick_io())
        jobs = sched.submit(
            [JobSpec(kind="pemodel", index=i, cpu_seconds=100.0) for i in range(8)]
        )
        sim.run()
        ends = sorted(j.end_time for j in jobs)
        assert ends[3] < ends[4]  # two distinct waves
        assert sim.now < 230.0  # but not serialized (8 x 100 s)

    def test_dependency_ordering(self):
        sim = Simulator()
        sched = ClusterScheduler(sim, small_cluster(), SGEPolicy(), quick_io())
        specs = [
            JobSpec(kind="pert", index=0, cpu_seconds=5.0),
            JobSpec(kind="pemodel", index=0, cpu_seconds=50.0, depends_on=("pert", 0)),
        ]
        jobs = sched.submit(specs)
        sim.run()
        pert, pemodel = jobs
        assert pemodel.start_time >= pert.end_time

    def test_speed_factor_scales_compute(self):
        def run_on(speed):
            sim = Simulator()
            sched = ClusterScheduler(
                sim, small_cluster(speed=speed), SGEPolicy(), quick_io()
            )
            sched.submit([JobSpec(kind="pemodel", index=0, cpu_seconds=100.0)])
            sim.run()
            return sched.jobs[("pemodel", 0)].cpu_busy_seconds

        assert run_on(2.0) == pytest.approx(run_on(1.0) / 2.0)

    def test_duplicate_submission_rejected(self):
        sim = Simulator()
        sched = ClusterScheduler(sim, small_cluster(), SGEPolicy(), quick_io())
        spec = JobSpec(kind="pert", index=0, cpu_seconds=1.0)
        sched.submit([spec])
        with pytest.raises(ValueError, match="duplicate"):
            sched.submit([spec])



class TestPolicies:
    def _makespan(self, policy, n_jobs=8, cores=2):
        sim = Simulator()
        sched = ClusterScheduler(sim, small_cluster(cores=cores), policy, quick_io())
        sched.submit(
            [JobSpec(kind="pemodel", index=i, cpu_seconds=300.0) for i in range(n_jobs)]
        )
        sim.run()
        return sim.now

    def test_condor_slower_than_sge(self):
        """The paper's 10-20% Condor gap, from negotiation-cycle waits."""
        sge = self._makespan(SGEPolicy())
        condor = self._makespan(CondorPolicy())
        assert condor > sge
        assert condor / sge < 2.0

    def test_tuned_condor_approaches_sge(self, monkeypatch):
        monkeypatch.setattr(CondorPolicy, "negotiation_interval_s", 300.0)
        slow = self._makespan(CondorPolicy())
        monkeypatch.setattr(CondorPolicy, "negotiation_interval_s", 10.0)
        tuned = self._makespan(CondorPolicy())
        assert tuned < slow


class TestNFSContention:
    def test_nfs_mode_slower_than_prestaged(self):
        def makespan(mode):
            sim = Simulator()
            io = IOConfiguration(
                mode=mode, pert_input_mb=200.0, pemodel_input_mb=200.0,
                output_mb=1.0, prestage_cost_s=0.0,
            )
            sched = ClusterScheduler(sim, small_cluster(cores=4), SGEPolicy(), io)
            sched.submit(
                [JobSpec(kind="pert", index=i, cpu_seconds=10.0) for i in range(8)]
            )
            sim.run()
            return sim.now

        assert makespan(IOMode.NFS) > makespan(IOMode.PRESTAGED)

    def test_nfs_mode_lowers_cpu_utilization(self):
        def mean_util(mode):
            sim = Simulator()
            io = IOConfiguration(
                mode=mode, pert_input_mb=200.0, pemodel_input_mb=200.0,
                output_mb=0.0, prestage_cost_s=0.0,
            )
            sched = ClusterScheduler(sim, small_cluster(cores=4), SGEPolicy(), io)
            jobs = sched.submit(
                [JobSpec(kind="pert", index=i, cpu_seconds=10.0) for i in range(8)]
            )
            sim.run()
            return sum(j.cpu_utilization for j in jobs) / len(jobs)

        assert mean_util(IOMode.NFS) < mean_util(IOMode.PRESTAGED)


class TestCampaign:
    def test_small_ensemble_campaign(self):
        camp = EnsembleCampaign(
            small_cluster(cores=4),
            io_config=quick_io(),
            task_times={"pert": 5.0, "pemodel": 50.0, "acoustic": 10.0},
        )
        stats = camp.run(camp.ensemble_specs(6))
        assert stats.job_count == 12
        assert stats.makespan_seconds > 0
        assert set(stats.cpu_utilization_by_kind) == {"pert", "pemodel"}

    def test_spec_validation(self):
        camp = EnsembleCampaign(small_cluster())
        with pytest.raises(ValueError):
            camp.ensemble_specs(0)
        with pytest.raises(ValueError):
            camp.acoustic_specs(0)

    def test_mseas_cluster_shape(self):
        cluster = mseas_cluster()
        assert cluster.total_cores == 210
        assert cluster.nodes[0].spec.name.startswith("opt285")

    def test_paper_calibration_600_members(self):
        """Sec 5.2.1: ~77 min all-local vs ~86 min NFS-input (shape)."""
        local = EnsembleCampaign(
            mseas_cluster(), io_config=IOConfiguration(mode=IOMode.PRESTAGED)
        )
        nfs = EnsembleCampaign(
            mseas_cluster(), io_config=IOConfiguration(mode=IOMode.NFS)
        )
        s_local = local.run(local.ensemble_specs(600))
        s_nfs = nfs.run(nfs.ensemble_specs(600))
        assert 70.0 < s_local.makespan_minutes < 85.0
        assert 80.0 < s_nfs.makespan_minutes < 95.0
        assert s_nfs.makespan_minutes > s_local.makespan_minutes
        # pert CPU utilization jumps ~20% -> ~100% with prestaging
        assert s_nfs.cpu_utilization_by_kind["pert"] < 0.3
        assert s_local.cpu_utilization_by_kind["pert"] > 0.7
