"""SGE-like and Condor-like scheduling policies plus the cluster scheduler.

Paper Sec 5.2.1: "Timings under Condor were between 10-20% slower.
Essentially the difference could be seen in the time it took for the
queuing system to reassign a new job to a node that just finished one.  In
the case of SGE the transition was immediate -- Condor appeared to want to
wait."  We model SGE as immediate dispatch (small per-dispatch latency)
and Condor as dispatch restricted to periodic negotiation cycles, the
mechanism behind that observation.
"""

from __future__ import annotations

from collections import deque

from repro.sched.engine import Simulator
from repro.sched.iomodel import IOConfiguration, IOMode, SharedBandwidth
from repro.sched.jobs import Job, JobSpec, JobState
from repro.sched.resources import ClusterModel, Node


class SGEPolicy:
    """Sun Grid Engine: immediate reassignment."""

    dispatch_latency_s = 0.5  # scheduler reaction time
    submit_overhead_s = 0.02  # per-job submission cost (no arrays)
    array_overhead_s = 0.002  # per-job cost inside a job array


class CondorPolicy:
    """Condor: dispatch happens at periodic negotiation cycles.

    ``negotiation_interval_s`` is a tuned 180 s cycle (Condor's classic
    default is 300 s; the paper "tweaked the configuration files to
    diminish this difference", which corresponds to lowering this value).
    """

    negotiation_interval_s = 180.0
    submit_overhead_s = 0.05
    array_overhead_s = 0.005


class ClusterScheduler:
    """Runs job specs on a cluster model under a scheduling policy.

    Jobs pass through three phases on their node: input read (NFS shared
    bandwidth or local disk, per the I/O configuration), compute
    (``cpu_seconds / speed_factor``), and output copy-back over NFS.

    Parameters
    ----------
    sim, cluster, policy, io_config:
        The simulation clock, hardware model, scheduling policy and input
        locality configuration.
    as_job_array:
        Whether submissions are batched as arrays (cheaper per job,
        Sec 5.2.1: "we used job arrays to lessen the load on the
        scheduler").
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: ClusterModel,
        policy: SGEPolicy | CondorPolicy,
        io_config: IOConfiguration | None = None,
        as_job_array: bool = True,
    ):
        self.sim = sim
        self.cluster = cluster
        self.policy = policy
        self.io_config = io_config if io_config is not None else IOConfiguration()
        self.as_job_array = as_job_array
        self.nfs = SharedBandwidth(sim, cluster.nfs_bandwidth_mbps)
        self.jobs: dict[tuple[str, int], Job] = {}
        self._ready: deque[Job] = deque()
        self._waiting_dependency: list[Job] = []
        self._dispatch_scheduled = False
        self._prestage_done = self.io_config.mode is not IOMode.NFS and (
            self.io_config.prestage_cost_s == 0.0
        )
        self._prestage_started = False
        self._negotiation_active = False
        if isinstance(policy, CondorPolicy):
            self._schedule_negotiation()

    # -- public API ---------------------------------------------------------

    def submit(self, specs: list[JobSpec]) -> list[Job]:
        """Submit jobs; returns their runtime records."""
        overhead = (
            self.policy.array_overhead_s
            if self.as_job_array
            else self.policy.submit_overhead_s
        )
        submitted = []
        delay = 0.0
        for spec in specs:
            key = (spec.kind, spec.index)
            if key in self.jobs:
                raise ValueError(f"duplicate job {key}")
            job = Job(spec=spec, submit_time=self.sim.now + delay)
            self.jobs[key] = job
            submitted.append(job)
            if spec.depends_on is not None:
                self._waiting_dependency.append(job)
            elif self.as_job_array:
                # One array = one scheduler object: all tasks become
                # visible together, no per-job events.
                self._ready.append(job)
            else:
                # Per-job submission: each job is a separate scheduler
                # event, staggered by its submission cost -- the load
                # that job arrays exist to avoid (Sec 4.2 / 5.2.1).
                self.sim.schedule(delay, lambda j=job: self._enqueue(j))
            delay += overhead
        if self.io_config.mode is IOMode.PRESTAGED and not self._prestage_started:
            self._prestage_started = True
            self.sim.schedule(
                self.io_config.prestage_cost_s, self._finish_prestage
            )
        if isinstance(self.policy, CondorPolicy) and not self._negotiation_active:
            self._schedule_negotiation()
        self._request_dispatch(after=delay)
        return submitted

    # -- internals --------------------------------------------------------------

    def _finish_prestage(self) -> None:
        self._prestage_done = True
        self._request_dispatch()

    def _enqueue(self, job: Job) -> None:
        self._ready.append(job)
        if isinstance(self.policy, CondorPolicy) and not self._negotiation_active:
            # a staggered submission may arrive after negotiation went
            # idle; restart the cycle or it would never be dispatched
            self._schedule_negotiation()
        self._request_dispatch()

    def _schedule_negotiation(self) -> None:
        self._negotiation_active = True
        self.sim.schedule(
            self.policy.negotiation_interval_s, self._negotiation_cycle
        )

    def _negotiation_cycle(self) -> None:
        self._dispatch_now()
        if self._ready or self._waiting_dependency or self._any_running():
            self._schedule_negotiation()
        else:
            self._negotiation_active = False

    def _any_running(self) -> bool:
        return any(j.state is JobState.RUNNING for j in self.jobs.values())

    def _request_dispatch(self, after: float = 0.0) -> None:
        if isinstance(self.policy, CondorPolicy):
            return  # Condor only dispatches at negotiation cycles
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True

        def fire():
            self._dispatch_scheduled = False
            self._dispatch_now()

        self.sim.schedule(after + self.policy.dispatch_latency_s, fire)

    def _dispatch_now(self) -> None:
        if self.io_config.mode is IOMode.PRESTAGED and not self._prestage_done:
            return
        # FIFO: every job takes one core, so the first job that finds no
        # free core stops the scan
        while self._ready:
            node = self.cluster.find_free_node()
            if node is None:
                break
            self._start_job(self._ready.popleft(), node)

    def _start_job(self, job: Job, node: Node) -> None:
        node.acquire()
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        job.node_name = node.spec.name
        input_mb = self.io_config.input_mb(job.spec.kind)
        if self.io_config.mode is IOMode.NFS and input_mb > 0:
            self.nfs.transfer(input_mb, lambda: self._start_compute(job, node))
        elif input_mb > 0:
            read_time = input_mb / node.spec.local_disk_mbps
            self.sim.schedule(read_time, lambda: self._start_compute(job, node))
        else:
            self._start_compute(job, node)

    def _start_compute(self, job: Job, node: Node) -> None:
        duration = job.spec.cpu_seconds / node.spec.speed_factor
        job.cpu_busy_seconds = duration
        self.sim.schedule(duration, lambda: self._start_output(job, node))

    def _start_output(self, job: Job, node: Node) -> None:
        out_mb = self.io_config.output_mb_for(job.spec.kind)
        if out_mb > 0:
            self.nfs.transfer(out_mb, lambda: self._finish_job(job, node))
        else:
            self._finish_job(job, node)

    def _finish_job(self, job: Job, node: Node) -> None:
        node.release()
        job.state = JobState.DONE
        job.end_time = self.sim.now
        # release dependents
        released = []
        still_waiting = []
        for waiting in self._waiting_dependency:
            dep = waiting.spec.depends_on
            if dep == (job.spec.kind, job.spec.index):
                released.append(waiting)
            else:
                still_waiting.append(waiting)
        self._waiting_dependency = still_waiting
        self._ready.extend(released)
        self._request_dispatch()
