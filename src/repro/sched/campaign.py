"""ESSE and acoustic campaign builders plus aggregate statistics.

A campaign is the scheduler-level view of one ESSE forecast: N ``pert``
singletons, each followed by its dependent ``pemodel`` singleton, plus
(optionally) thousands of short ``acoustic`` singletons afterwards
(Sec 5.2.1).  Statistics collected per run reproduce the paper's reported
quantities: makespan, per-kind CPU utilization, queue waits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.taskmodel import reference_task_times
from repro.sched.engine import Simulator
from repro.sched.iomodel import IOConfiguration
from repro.sched.jobs import JobSpec, JobState
from repro.sched.resources import ClusterModel
from repro.sched.schedulers import ClusterScheduler, CondorPolicy, SGEPolicy


@dataclass(frozen=True)
class CampaignStats:
    """Aggregate results of one simulated campaign."""

    makespan_seconds: float
    job_count: int
    mean_wait_seconds: float
    cpu_utilization_by_kind: dict[str, float]
    mean_runtime_by_kind: dict[str, float]
    core_utilization: float
    sim_events: int = 0  # DES events processed: the scheduler-load proxy

    @property
    def makespan_minutes(self) -> float:
        """Makespan in minutes (the paper quotes ~77 / ~86 min)."""
        return self.makespan_seconds / 60.0


class EnsembleCampaign:
    """Builds and runs one ESSE scheduler campaign.

    Parameters
    ----------
    cluster:
        Hardware model.
    policy:
        SGE-like or Condor-like scheduling policy.
    io_config:
        Input locality (NFS vs prestaged) and file sizes.
    task_times:
        CPU seconds per kind on the reference host; defaults to the
        paper's measured values.
    as_job_array:
        Submit as job arrays (paper default for the ESSE ensembles).
    """

    def __init__(
        self,
        cluster: ClusterModel,
        policy: SGEPolicy | CondorPolicy | None = None,
        io_config: IOConfiguration | None = None,
        task_times: dict[str, float] | None = None,
        as_job_array: bool = True,
    ):
        self.cluster = cluster
        self.policy = policy if policy is not None else SGEPolicy()
        self.io_config = io_config if io_config is not None else IOConfiguration()
        self.task_times = (
            dict(task_times) if task_times is not None else reference_task_times()
        )
        self.as_job_array = as_job_array

    def ensemble_specs(self, n_members: int) -> list[JobSpec]:
        """pert + dependent pemodel specs for ``n_members`` members."""
        if n_members < 1:
            raise ValueError("n_members must be >= 1")
        specs: list[JobSpec] = []
        for i in range(n_members):
            specs.append(
                JobSpec(kind="pert", index=i, cpu_seconds=self.task_times["pert"])
            )
            specs.append(
                JobSpec(
                    kind="pemodel",
                    index=i,
                    cpu_seconds=self.task_times["pemodel"],
                    depends_on=("pert", i),
                )
            )
        return specs

    def acoustic_specs(self, n_tasks: int) -> list[JobSpec]:
        """Independent short acoustic singletons (no job arrays used)."""
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        return [
            JobSpec(kind="acoustic", index=i, cpu_seconds=self.task_times["acoustic"])
            for i in range(n_tasks)
        ]

    def run(self, specs: list[JobSpec]) -> CampaignStats:
        """Simulate the campaign to completion and aggregate statistics."""
        sim = Simulator()
        scheduler = ClusterScheduler(
            sim,
            self.cluster,
            self.policy,
            io_config=self.io_config,
            as_job_array=self.as_job_array,
        )
        scheduler.submit(specs)
        sim.run()

        jobs = [j for j in scheduler.jobs.values() if j.state is JobState.DONE]
        if len(jobs) != len(specs):
            raise RuntimeError(f"{len(specs) - len(jobs)} jobs did not finish")
        makespan = max(j.end_time for j in jobs)
        waits = [j.wait_seconds for j in jobs]
        kinds = sorted({j.spec.kind for j in jobs})
        util = {}
        runtime = {}
        for kind in kinds:
            of_kind = [j for j in jobs if j.spec.kind == kind]
            util[kind] = float(np.mean([j.cpu_utilization for j in of_kind]))
            runtime[kind] = float(np.mean([j.runtime_seconds for j in of_kind]))
        busy_core_seconds = sum(j.runtime_seconds for j in jobs)
        core_util = busy_core_seconds / (self.cluster.total_cores * makespan)
        return CampaignStats(
            makespan_seconds=makespan,
            job_count=len(jobs),
            mean_wait_seconds=float(np.mean(waits)),
            cpu_utilization_by_kind=util,
            mean_runtime_by_kind=runtime,
            core_utilization=core_util,
            sim_events=sim.events_processed,
        )
