"""The parallel (many-task) ESSE workflow -- paper Fig 4.

The serial shepherd's loops are decoupled:

- a *pool* of member tasks of size M >= N runs on a worker pool ("these
  calculations can be done concurrently on different machines, as there
  is no actual serial dependence in the forecasting loop"), kept
  ``pool_margin`` ahead of the stage being grown so that "there is no
  point during this process where the pipeline of results drains";
- a *differ* folds finished members in completion order (not index
  order) into the covariance column store, tracking which perturbation
  index each column came from;
- each stage's *SVD and convergence test* factor the snapshot published
  through the three-file protocol, "using the latest result available
  from the diff loop";
- *cancellation*: on convergence the remaining members are cancelled per
  policy; under DRAIN_RUNNING the running ones are diffed and a final
  SVD uses them all;
- *fault tolerance* is the one :class:`~repro.workflow.pool.TaskPool`'s
  (retry/backoff, straggler cancel-and-replace, fault injection); the
  member pool's own part is that the differ fails torn member files back
  to the pool, every attempt leaves a numbered status record, and the
  run degrades to the surviving members when retries are exhausted
  (``docs/FAILURE_MODEL.md``).

The stages, SVDs and test are :func:`repro.core.ensemble.grow_ensemble`:
its ``propagate`` is one :class:`MemberPool`, its sink the published
column store (the engine's).  Only
member attempts run on other threads (or processes), and every component
appends to one event log, from which the Fig 4 bench derives phase
overlap and speedup versus the serial implementation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.covariance import AnomalyAccumulator
from repro.core.driver import ESSEConfig
from repro.core.ensemble import EnsembleRunner, MemberResult, grow_ensemble
from repro.core.subspace import ErrorSubspace
from repro.core.taskmodel import warn_lost_members
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.util.fsio import durable_write
from repro.workflow.covfile import MemmapCovarianceStore
from repro.workflow.faults import FaultInjector
from repro.workflow.policies import CancellationPolicy, RetryPolicy
from repro.workflow.pool import TaskOutcome, TaskPool
from repro.workflow.statefiles import StatusDirectory, TaskStatus


@dataclass(frozen=True)
class WorkflowEvent:
    """One timestamped event in the run (seconds since workflow start)."""

    time: float
    kind: str
    detail: str = ""


@dataclass
class WorkflowResult:
    """Outcome of the parallel ESSE workflow."""

    subspace: ErrorSubspace
    ensemble_size: int  # members actually in the final covariance
    converged: bool
    convergence_history: tuple[tuple[int, float], ...]
    events: tuple[WorkflowEvent, ...]
    n_completed: int
    n_failed: int
    n_cancelled: int
    wall_seconds: float
    member_ids: tuple[int, ...]
    n_retried: int = 0  # resubmissions actually executed
    n_timed_out: int = 0  # straggler attempts cancelled past the deadline
    degraded: bool = False  # members lost terminally; subspace from survivors

    def events_of(self, kind: str) -> list[WorkflowEvent]:
        """All events of one kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def overlap_fraction(self) -> float:
        """Fraction of diff activity overlapping the forecast phase.

        In the serial implementation this is 0 by construction; the MTC
        pipeline should push it toward 1.
        """
        members = self.events_of("member_done")
        diffs = self.events_of("diff_added")
        if not members or not diffs:
            return 0.0
        last_member = members[-1].time
        overlapping = sum(1 for e in diffs if e.time <= last_member)
        return overlapping / len(diffs)


@dataclass(frozen=True)
class _MemberTask:
    """One batch attempt, as the pool runs it in a thread or a worker process.

    Remote execution hosts in the paper write their outputs and status
    files to a shared filesystem and the differ on the master consumes
    them; a batch, one job-array task, mirrors that in both executors: it
    steps its members with ``run_members_batched`` (bit-identical to
    ``run_member``), writes one batch file of those that did not blow up,
    then one SUCCESS record naming them, and returns the file's name as
    each one's value for the differ to read.
    """

    runner: EnsembleRunner
    mean_state: object
    members_dir: Path
    status: StatusDirectory

    def __call__(self, indices, attempt, corrupt, cancel) -> list[tuple]:
        """One attempt of ``indices`` (the pool's :data:`~repro.workflow.pool.Task`)."""
        results = self.runner.run_members_batched(self.mean_state, indices)
        if cancel is not None and cancel.is_set():
            # Straggler-cancelled mid-run: the pool already reported
            # TIMED_OUT and queued the replacements; write nothing.
            return [(False, None, "cancelled")] * len(indices)
        done = [r.member_index for r in results if r.ok]
        name = f"batch_{indices[0]:05d}.a{attempt}.npz"
        if done:
            whole = io.BytesIO()
            forecasts = np.stack([r.forecast for r in results if r.ok])
            np.savez(whole, members=np.array(done), forecasts=forecasts)
            data = whole.getvalue()
            if any(corrupt):
                # A torn shared-FS write: truncated file *and* a success
                # status -- the case the differ must catch.
                data = FaultInjector.corrupt_bytes(data)
            durable_write(self.members_dir / name, lambda fh: fh.write(data))
            self.status.write_batch("pemodel", done, TaskStatus.SUCCESS, attempt)
        return [(True, name, None) if r.ok else (False, None, r.error) for r in results]


class _PublishedColumns(AnomalyAccumulator):
    """The column sink of the engine and of Fig 4: accumulate, publish, read back.

    Every :meth:`view` ships the new columns to the
    :class:`~repro.workflow.covfile.MemmapCovarianceStore`, publishes,
    and returns the *published* snapshot, so every SVD factors what the
    three-file protocol made visible, zero-copy.
    """

    def __init__(self, layout, central, store, metrics):
        super().__init__(layout, central)
        self.store = store
        self.metrics = metrics

    def view(self):
        """Publish what has accumulated; the published snapshot."""
        nbytes = self.store.sync_from(super().view())
        self.store.publish()
        if self.metrics is not None:
            self.metrics.counter("cov.bytes_written").inc(nbytes)
        return self.store.read_safe()


class MemberPool:
    """One run's member tasks, files and records: the stage loop's ``propagate``.

    The :class:`~repro.workflow.pool.TaskPool` of :class:`_MemberTask`
    attempts, entered once per run (``with``).  :meth:`propagate` keeps
    ``ceil(stage end x margin)`` members submitted, in job-array batches
    of at most ``batch_size``, and runs :meth:`collect` until the stage
    is resolved.  The batch is the attempt unit, the member the unit of
    everything else: each outcome writes one member's failure record and
    event-log entry (a retry also a ``retry`` telemetry event), a failed
    member is retried alone, a lost one delivered as
    ``MemberResult(index, None, error)``.  Leaving the block
    cancels the queued members (CANCELLED records) and waits for the
    running ones, which one more :meth:`collect` then reads.  Client:
    :class:`ParallelESSEWorkflow` (Fig 4), on threads or processes.

    Parameters
    ----------
    runner, mean_state:
        What every member attempt runs.
    workdir, status:
        Batch files go to ``workdir/members``, ``pemodel`` records to
        ``status``.
    n_workers, max_members:
        Executor width; Nmax, never submitted past.
    margin:
        How far (a factor >= 1) the pool runs ahead of the stage.
    batch_size:
        Members per first attempt (the engine's default batch, 8).
    deadline:
        Tmax as a clock reading: a stage stops waiting past it once two
        members are in.  None waits for every stage.
    log:
        ``log(kind, detail)``, the event log.
    options:
        The :class:`~repro.workflow.pool.TaskPool`'s other keywords.
    """

    def __init__(
        self,
        runner: EnsembleRunner,
        mean_state,
        workdir: Path,
        status: StatusDirectory,
        n_workers: int,
        max_members: int,
        margin: float = 1.0,
        batch_size: int = 8,
        deadline: float | None = None,
        log=lambda kind, detail="": None,
        **options,
    ):
        self.members_dir = Path(workdir) / "members"
        self.status = status
        self.max_members = max_members
        self.margin = margin
        self.batch_size = batch_size
        self.deadline = deadline
        self._log = log
        task = _MemberTask(runner, mean_state, self.members_dir, status)
        self.pool = TaskPool("pemodel", task, n_workers, **options)
        self.submitted = 0
        self.count = 0  # members delivered
        self.cancelled: list[int] = []

    def __enter__(self) -> "MemberPool":
        # A run starts from nothing: no batch file or record of an
        # earlier run in the same directory may be folded into this one.
        self.members_dir.mkdir(parents=True, exist_ok=True)
        for path in self.members_dir.glob("batch_*.npz"):
            path.unlink()
        self.status.clear("pemodel")
        self.pool.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        # Superfluous members: queued ones are cancelled, running ones
        # finish while the executor shuts down.
        try:
            self.cancelled = self.pool.cancel_pending()
            for index in self.cancelled:
                self.status.write("pemodel", index, TaskStatus.CANCELLED)
                self._log("cancel", f"member={index}")
        finally:
            self.pool.__exit__(*exc_info)

    def propagate(self, indices: range, deliver) -> None:
        """Keep the pool ahead of this stage; diff until it is resolved."""
        want = min(math.ceil(indices.stop * self.margin), self.max_members)
        if want > self.submitted:
            self._log("enlarge" if self.submitted else "pool", f"size={want}")
            for lo in range(self.submitted, want, self.batch_size):
                self.pool.submit(range(lo, min(lo + self.batch_size, want)))
            self.submitted = want
            if self.pool.metrics is not None:
                self.pool.metrics.gauge("pool_size").set(want)
        while True:
            self.collect(deliver)
            if self.pool.resolved(indices):
                return
            # Tmax cuts a stage short once there is something to factor.
            if (
                self.deadline is not None
                and self.count >= 2
                and self.pool.telemetry.clock() > self.deadline
            ):
                self._log("deadline")
                return
            self.pool.wait()

    def collect(self, deliver) -> None:
        """One differ pass over what the pool reported since the last.

        Each batch file a successful attempt names is read once and its
        members delivered one by one; a torn or missing file fails each
        of its members back to the pool (IO_FAILURE).
        """
        files: dict[str, dict] = {}  # batch file -> member -> forecast
        for out in self.pool.poll(self.pool.telemetry.clock()):
            self._record(out)
            if out.ok:
                if out.value not in files:
                    files[out.value] = self._read(out.value)
                forecast = files[out.value].get(out.index)
                if forecast is None:
                    out = self.pool.fail(out.index, out.attempt, "corrupt output")
                    self._record(out, corrupt=True)
                else:
                    deliver(MemberResult(out.index, forecast))
                    self.count += 1
                    self._log("diff_added", f"member={out.index} count={self.count}")
                    continue
            if out.lost:
                deliver(MemberResult(out.index, None, out.error))

    def _read(self, name: str) -> dict:
        """A batch file's forecasts by member; none when it is torn."""
        try:
            with np.load(self.members_dir / name) as data:
                return dict(zip(data["members"].tolist(), data["forecasts"]))
        except Exception:
            return {}

    def _record(self, out: TaskOutcome, corrupt: bool = False) -> None:
        """Write the status record and log the events of one member's outcome.

        Attempts write their batch's SUCCESS record, every failure record
        is one member's, written here (``corrupt``: the differ failed it
        over a torn file).
        """
        member = f"member={out.index}"
        if out.ok:
            self._log("member_done", member)
            return
        if out.submit_try and not out.lost:
            self._log("submit_retry", f"{member} try={out.submit_try}")
            return
        status = TaskStatus.MODEL_FAILURE
        if corrupt or out.submit_try:  # a torn file; the submission path dead
            status = TaskStatus.IO_FAILURE
        elif out.timed_out:
            status = TaskStatus.TIMED_OUT
        self.status.write_batch("pemodel", (out.index,), status, out.attempt)
        if corrupt:
            self._log("member_corrupt", f"{member} attempt={out.attempt}")
        elif out.timed_out:
            after = f"after={out.elapsed:.3f}"
            self._log("straggler_cancel", f"{member} attempt={out.attempt} {after}")
        elif out.lost and not out.submit_try:
            self._log("member_done", member)
        if out.lost:
            self._log("member_terminal_failure", f"{member} why={out.error}")
        else:
            after = f"attempt={out.attempt + 1} delay={out.retry_delay:.3f}"
            self._log("retry", f"{member} {after} why={out.error}")
            self.pool.telemetry.event(
                "retry", index=out.index, attempt=out.attempt + 1, why=out.error
            )


class ParallelESSEWorkflow:
    """Fig 4: member pool + completion-order differ + published-snapshot SVD.

    Parameters
    ----------
    runner:
        Ensemble runner shared by all members.
    config:
        ESSE sizing/convergence configuration (stages = SVD checkpoints).
    workdir:
        Shared working directory: member, status and covariance files.
    n_workers:
        Worker pool width.
    cancellation:
        Policy applied to in-flight members on convergence.
    use_processes:
        Run members in a process pool (true parallelism) instead of
        threads, the cheap default.
    pool_margin:
        The task pool stays this factor ahead of the stage being grown
        so the pipeline never drains.
    retry:
        Resubmission policy for failed/corrupt/straggling members; None
        makes every failure terminal.  Straggler cancellation
        (``retry.timeout_seconds``) needs threads: process attempts
        cannot be interrupted.
    faults:
        Deterministic fault injector; None runs fault-free.
    telemetry:
        A :class:`~repro.telemetry.spans.TraceRecorder` for the spans
        (member attempts, stages, SVDs); its ``clock`` is the workflow's
        *only* time source.  The default records nothing.
    metrics:
        A :class:`~repro.telemetry.metrics.MetricsRegistry` (None: none) fed
        task latencies, retry/timeout counters, pool-size gauges, covariance
        bytes (``cov.bytes_written``) and SVD counts (``svd_computations``).
    """

    def __init__(
        self,
        runner: EnsembleRunner,
        config: ESSEConfig,
        workdir: str | Path,
        n_workers: int = 4,
        cancellation: CancellationPolicy = CancellationPolicy.DRAIN_RUNNING,
        use_processes: bool = False,
        pool_margin: float = 1.5,
        retry: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
        telemetry=None,
        metrics: MetricsRegistry | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if pool_margin < 1.0:
            raise ValueError("pool_margin must be >= 1")
        self.runner = runner
        self.config = config
        self.workdir = Path(workdir)
        self.status = StatusDirectory(self.workdir / "status")
        self.covset = MemmapCovarianceStore(self.workdir)
        self.n_workers = n_workers
        self.cancellation = cancellation
        self.use_processes = use_processes
        self.pool_margin = pool_margin
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        # The one time source: event stamps, backoff, straggler timers and
        # Tmax all read it, so tests can inject a fake clock end to end.
        self._clock = self.telemetry.clock
        self._events: list[WorkflowEvent] = []
        self._t0 = 0.0

    # -- event log ---------------------------------------------------------

    def _log(self, kind: str, detail: str = "") -> None:
        self._events.append(
            WorkflowEvent(self._clock() - self._t0, kind=kind, detail=detail)
        )

    def _checked(self, count: int, subspace, rho, converged: bool) -> None:
        """Log one stage's publish, SVD and convergence test (``on_check``)."""
        self._log("publish", f"count={count}")
        similarity = "" if rho is None else f" rho={rho:.4f}"
        self._log("svd_done", f"count={count} rank={subspace.rank}{similarity}")
        if self.metrics is not None:
            self.metrics.counter("svd_computations").inc()
        if converged:
            self._log("converged", f"count={count}")

    # -- main -------------------------------------------------------------------

    def run(self, mean_state) -> WorkflowResult:
        """Execute the many-task pipeline until convergence/Nmax/Tmax."""
        with self.telemetry.span("workflow.run") as root:
            return self._run(mean_state, root)

    def _run(self, mean_state, root) -> WorkflowResult:
        """The pipeline body, running inside the ``workflow.run`` span."""
        cfg = self.config
        self._events = []
        self._t0 = started = self._clock()
        # A reused workflow starts from an empty covariance store, or the
        # run would fold the previous run's published header into this
        # one (the member pool clears the member files and records).
        self.covset.cleanup()
        self.covset = MemmapCovarianceStore(self.workdir)

        with self.telemetry.span("central_forecast"):
            central = self.runner.central_forecast(mean_state)
        self._log("central_done")
        model = self.runner.model
        sink = _PublishedColumns(
            model.layout, model.to_vector(central), self.covset, self.metrics
        )
        deadline = cfg.deadline_seconds
        if deadline is not None:
            deadline += started  # Tmax as a clock reading
        members = MemberPool(
            self.runner,
            mean_state,
            self.workdir,
            self.status,
            self.n_workers,
            cfg.max_ensemble_size,
            processes=self.use_processes,
            margin=self.pool_margin,
            deadline=deadline,
            retry=self.retry,
            faults=self.faults,
            telemetry=self.telemetry,
            metrics=self.metrics,
            parent_span=root,
            log=self._log,
        )
        with members:
            growth = grow_ensemble(
                cfg,
                members.propagate,
                sink,
                telemetry=self.telemetry,
                started=started,
                on_check=self._checked,
            )

        subspace = growth.subspace
        if self.cancellation is not CancellationPolicy.IMMEDIATE:
            # Drain: the members that were still running are diffed, and
            # "another SVD calculation is performed and all available
            # results are used".  A member lost here is only recorded.
            members.collect(
                lambda res: res.ok and sink.add_member(res.member_index, res.forecast)
            )
            if sink.count > growth.ensemble_size:
                with self.telemetry.span("svd.final", count=sink.count):
                    view = sink.view()
                    subspace = cfg.subspace_estimator().update(
                        view.columns, view.count, view.scale
                    )
                self._log("final_svd", f"count={view.count}")

        lost = members.pool.lost
        if lost:
            self._log("degraded", f"n_lost={len(lost)}")
            warn_lost_members(len(lost))

        statuses = self.status.completed_indices("pemodel").values()
        n_completed = sum(1 for s in statuses if s == TaskStatus.SUCCESS)
        n_failed = sum(1 for s in statuses if s.is_retryable)  # a failure class
        if self.metrics is not None:
            self.metrics.gauge("members_completed", kind="pemodel").set(n_completed)
            self.metrics.gauge("members_failed", kind="pemodel").set(n_failed)
            self.metrics.gauge("members_cancelled", kind="pemodel").set(
                len(members.cancelled)
            )
        return WorkflowResult(
            subspace=subspace,
            ensemble_size=sink.count,
            converged=growth.converged,
            convergence_history=growth.convergence_history,
            events=tuple(self._events),
            n_completed=n_completed,
            n_failed=n_failed,
            n_cancelled=len(members.cancelled),
            wall_seconds=self._clock() - started,
            member_ids=sink.member_ids,
            n_retried=members.pool.n_retried,
            n_timed_out=members.pool.n_timed_out,
            degraded=bool(lost),
        )
