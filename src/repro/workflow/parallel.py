"""The parallel (many-task) ESSE workflow -- paper Fig 4.

The serial shepherd's loops are decoupled into concurrently running
components:

- a *pool* of member tasks of size M >= N executed by a worker pool
  ("these calculations can be done concurrently on different machines, as
  there is no actual serial dependence in the forecasting loop");
- a continuously running *differ* that consumes finished members in
  completion order (not index order) and appends them to the covariance
  matrix, tracking which perturbation index each column came from;
- a decoupled *SVD/convergence worker* that reads consistent snapshots via
  the three-file protocol "using the latest result available from the diff
  loop", checking whenever "a multiple of a set number of realizations has
  finished";
- *cancellation*: on convergence the remaining members are cancelled per
  policy, and on failure near the pool size the pool is enlarged in stages
  "to make sure that there is no point during this process where the
  pipeline of results drains";
- *fault tolerance*: the members run as a client of the one
  :class:`~repro.workflow.pool.TaskPool`, which owns retry/backoff,
  straggler cancel-and-replace and fault injection; this module keeps
  what is the workflow's own -- the differ flags torn member files back
  to the pool, every attempt leaves a numbered status record, and the
  run degrades gracefully to whatever converged subspace the surviving
  members support when retries are exhausted (``docs/FAILURE_MODEL.md``).

Every component appends to a shared event log, from which the Fig 4 bench
derives phase overlap and speedup versus the serial implementation.
"""

from __future__ import annotations

import io
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.covariance import AnomalyAccumulator
from repro.core.driver import ESSEConfig
from repro.core.ensemble import EnsembleRunner
from repro.core.subspace import ErrorSubspace
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.util.fsio import durable_write
from repro.util.sanitizer import new_lock, track
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
    """One member attempt, as the pool runs it in a thread or a worker process.

    Remote execution hosts in the paper write their outputs and status
    files to a shared filesystem and the differ on the master consumes
    them; members mirror that in both executors: the attempt writes the
    member file, then its SUCCESS record, and returns no payload.
    Failures are reported back and recorded by the main loop.
    """

    runner: EnsembleRunner
    mean_state: object
    members_dir: Path
    status: StatusDirectory

    def __call__(
        self, index: int, attempt: int, corrupt: bool, cancel: threading.Event | None
    ) -> tuple[bool, None, str | None]:
        result = self.runner.run_member(self.mean_state, index)
        if cancel is not None and cancel.is_set():
            # Straggler-cancelled mid-run: the main loop already recorded
            # TIMED_OUT and queued the replacement; write nothing.
            return False, None, "cancelled"
        if not result.ok:
            return False, None, result.error
        whole = io.BytesIO()
        np.savez(whole, forecast=result.forecast)
        data = whole.getvalue()
        if corrupt:
            # A torn shared-FS write: truncated file *and* a success
            # status -- the case the differ must catch.
            data = FaultInjector.corrupt_bytes(data)
        path = self.members_dir / f"forecast_{index:05d}.npz"
        durable_write(path, lambda fh: fh.write(data))
        self.status.write("pemodel", index, TaskStatus.SUCCESS, attempt=attempt)
        return True, None, None


class ParallelESSEWorkflow:
    """Fig 4: pool + continuous differ + decoupled SVD/convergence.

    Parameters
    ----------
    runner:
        Ensemble runner shared by all members.
    config:
        ESSE sizing/convergence configuration; stage sizes double as the
        SVD checkpoints.
    workdir:
        Shared working directory (member files, status files, covariance
        protocol files).
    n_workers:
        Worker pool width.
    cancellation:
        Policy applied to in-flight members on convergence.
    use_processes:
        Run members in a process pool (true parallelism) instead of
        threads.  Threads are the default: cheap, and sufficient for the
        correctness-level tests.
    poll_interval:
        Differ/SVD thread polling period (s).
    pool_margin:
        The task pool stays this factor ahead of the next SVD checkpoint
        so the pipeline never drains.
    retry:
        Resubmission policy for failed/corrupt/straggling members.  None
        (the default) keeps the seed semantics: every failure is terminal.
        Straggler cancellation (``retry.timeout_seconds``) requires the
        thread backend; process-pool attempts cannot be interrupted.
    faults:
        Deterministic fault injector exercised by every member attempt;
        None runs fault-free.
    telemetry:
        A :class:`~repro.telemetry.spans.TraceRecorder` to receive spans
        (per-member attempts, differ folds, SVD computations) and which
        supplies the workflow's *only* time source via its ``clock``.
        The default :data:`~repro.telemetry.spans.NULL_RECORDER` records
        nothing and keeps the seed behaviour/overhead.
    metrics:
        A :class:`~repro.telemetry.metrics.MetricsRegistry` fed task
        latencies, retry/timeout counters, pool-size gauges, differ
        I/O-retry counts, covariance bytes written (``cov.bytes_written``)
        and the SVD path counter (``svd.path`` labelled with the
        estimator's ``last_path``); None disables metric recording.
    """

    #: Differ sweeps (one per ``poll_interval``) a SUCCESS record may stay
    #: ahead of its member file before the Nmax exit stops waiting for it.
    MISSING_SWEEP_LIMIT = 200

    def __init__(
        self,
        runner: EnsembleRunner,
        config: ESSEConfig,
        workdir: str | Path,
        n_workers: int = 4,
        cancellation: CancellationPolicy = CancellationPolicy.DRAIN_RUNNING,
        use_processes: bool = False,
        poll_interval: float = 0.005,
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
        self.members_dir = self.workdir / "members"
        self.members_dir.mkdir(parents=True, exist_ok=True)
        self.status = StatusDirectory(self.workdir / "status")
        self.covset = MemmapCovarianceStore(self.workdir)
        self.n_workers = n_workers
        self.cancellation = cancellation
        self.use_processes = use_processes
        self.poll_interval = poll_interval
        self.pool_margin = pool_margin
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        # The single time source for the whole workflow: every "now" --
        # event stamps, retry backoff deadlines, straggler timers, the
        # Tmax check -- goes through this clock so tests can inject a
        # fake one end-to-end.
        self._clock = self.telemetry.clock

        self._events: list[WorkflowEvent] = []
        self._events_lock = new_lock("ParallelESSEWorkflow._events_lock")
        self._t0 = 0.0
        self._root_span = None
        # differ -> main-loop signals (guarded by _fault_lock)
        self._fault_lock = new_lock("ParallelESSEWorkflow._fault_lock")
        self._corrupt_found: list[tuple[int, int]] = []  # (index, attempt)
        self._missing_sweeps: dict[int, int] = {}
        # Under REPRO_SANITIZE=1 the lockset detector watches the shared
        # differ <-> main-loop state; a no-op otherwise.
        track(self, "_events", "_corrupt_found", "_missing_sweeps")

    # -- event log ---------------------------------------------------------

    def _log(self, kind: str, detail: str = "") -> None:
        with self._events_lock:
            self._events.append(
                WorkflowEvent(self._clock() - self._t0, kind=kind, detail=detail)
            )

    # -- differ -> main-loop fault signals -----------------------------------

    def _note_missing(self, index: int) -> None:
        """Log a structured io_retry event for a status-before-file sweep.

        Events are emitted at sweep counts 1, 2, 4, 8, ... so a member
        stuck behind a slow shared filesystem is visible without the event
        log growing by one entry per 5 ms poll.
        """
        with self._fault_lock:
            sweeps = self._missing_sweeps.get(index, 0) + 1
            self._missing_sweeps[index] = sweeps
        if self.metrics is not None:
            self.metrics.counter("differ_io_retries", kind="pemodel").inc()
        if sweeps & (sweeps - 1) == 0:  # powers of two
            self._log("io_retry", f"member={index} sweeps={sweeps}")

    def _flag_corrupt(self, index: int, attempt: int) -> None:
        """Report an unreadable member file (consumed by the main loop).

        ``attempt`` identifies which successful attempt's output was read:
        the differ may sweep a torn file again after the main loop has
        already failed/resubmitted that attempt (its success snapshot is
        taken before the IO_FAILURE status lands), so the flag must carry
        the attempt it observed.  Attributing stale re-flags to the
        *current* attempt would burn a retry the new attempt never earned.
        """
        with self._fault_lock:
            if (index, attempt) not in self._corrupt_found:
                self._corrupt_found.append((index, attempt))

    def _drain_corrupt(self) -> list[tuple[int, int]]:
        """Hand (index, attempt) corrupt reports to the main loop once."""
        with self._fault_lock:
            found, self._corrupt_found = self._corrupt_found, []
        return found

    # -- pool outcomes -> status records + event log -----------------------------

    def _record(self, out: TaskOutcome) -> None:
        """Write the status record and log the events of one pool outcome.

        Attempts write their own SUCCESS record (the differ keys on it);
        every failure record is written here, by the main loop.
        """
        member = f"member={out.index}"
        if out.ok:
            self._log("member_done", member)
            return
        if out.submit_try and not out.lost:
            self._log("submit_retry", f"{member} try={out.submit_try}")
            return
        if out.timed_out:
            status = TaskStatus.TIMED_OUT
            event = (
                "straggler_cancel",
                f"{member} attempt={out.attempt} after={out.elapsed:.3f}",
            )
        elif out.submit_try:
            status, event = TaskStatus.IO_FAILURE, None  # submission path dead
        else:
            status = TaskStatus.MODEL_FAILURE
            event = ("member_done", member) if out.lost else None
        self.status.write("pemodel", out.index, status, attempt=out.attempt)
        if event is not None:
            self._log(*event)
        self._record_followup(out)

    def _record_followup(self, out: TaskOutcome) -> None:
        """Log what the pool did about a failed attempt: retry, or loss."""
        if out.lost:
            self._log(
                "member_terminal_failure", f"member={out.index} why={out.error}"
            )
        else:
            self._log(
                "retry",
                f"member={out.index} attempt={out.attempt + 1} "
                f"delay={out.retry_delay:.3f} why={out.error}",
            )

    def _fail_corrupt(self, pool: TaskPool) -> list[int]:
        """Fail the members whose output file the differ found unreadable."""
        failed = []
        for idx, att in self._drain_corrupt():
            out = pool.fail(idx, att, "corrupt output")
            if out is None:
                continue  # stale re-flag of a superseded or already-failed attempt
            self.status.write("pemodel", idx, TaskStatus.IO_FAILURE, attempt=att)
            self._log("member_corrupt", f"member={idx} attempt={att}")
            self._record_followup(out)
            failed.append(idx)
        return failed

    def _differ_caught_up(
        self, unread: set[int], accumulator: AnomalyAccumulator, acc_lock
    ) -> bool:
        """Whether the differ has dealt with every member in ``unread``.

        ``unread`` holds the members that reported success and that the
        differ has neither folded nor flagged corrupt yet; folded ones are
        dropped here.  Leaving the main loop while it is non-empty would
        stop retries before a torn output among them is found.  A member
        whose file has stayed invisible for :attr:`MISSING_SWEEP_LIMIT`
        differ sweeps is no longer waited for.
        """
        with acc_lock:
            unread -= {i for i in unread if accumulator.has_member(i)}
        with self._fault_lock:
            sweeps = dict(self._missing_sweeps)
        unread -= {i for i in unread if sweeps.get(i, 0) >= self.MISSING_SWEEP_LIMIT}
        return not unread

    # -- covariance protocol plumbing ------------------------------------------

    def _read_snapshot(self):
        """``read_safe`` with the structured-retry accounting of PR 1.

        An unreadable safe snapshot (torn or lagged header, data files
        behind it) reads as None; each consecutive failure is a structured
        ``io_retry`` event (geometrically thinned, same shape as the
        differ's status-before-file sweeps) plus a metrics counter, and
        the store raises
        :class:`~repro.workflow.covfile.CovarianceReadError` past its
        bound -- surfaced through the guarded-thread machinery instead
        of silently spinning forever.
        """
        snap = self.covset.read_safe()
        failures = self.covset.consecutive_unreadable
        if snap is None and failures:
            if self.metrics is not None:
                self.metrics.counter("differ_io_retries", kind="cov_safe").inc()
            if failures & (failures - 1) == 0:  # powers of two
                self._log("io_retry", f"target=cov_safe sweeps={failures}")
        return snap

    # -- component threads ----------------------------------------------------

    def _differ_loop(
        self,
        accumulator: AnomalyAccumulator,
        stop: threading.Event,
        acc_lock: threading.Lock,
    ) -> None:
        """Continuously fold finished members into the covariance files."""
        with self.telemetry.span("differ.loop", parent=self._root_span):
            while True:
                new_any = False
                for index in self.status.successful_indices("pemodel"):
                    with acc_lock:
                        if accumulator.has_member(index):
                            continue
                    path = self.members_dir / f"forecast_{index:05d}.npz"
                    # Snapshot which attempt's output we are about to read
                    # *before* opening the file: workers replace the file
                    # before writing SUCCESS, so the bytes on disk are at
                    # least as new as this snapshot.  If the read then fails,
                    # the flag names an attempt no newer than the real writer
                    # -- a stale guess dedups harmlessly and the next sweep
                    # re-flags with the right one.
                    ok_attempts = [
                        a
                        for a, s in self.status.attempt_history(
                            "pemodel", index
                        ).items()
                        if s == TaskStatus.SUCCESS
                    ]
                    try:
                        with np.load(path) as data:
                            forecast = data["forecast"].copy()
                    except FileNotFoundError:
                        # Status visible before file (NFS-style lag).  Not a
                        # silent spin: each sweep is a structured retry event
                        # (geometrically thinned) the monitor can see.
                        self._note_missing(index)
                        continue
                    except Exception:
                        if path.exists():
                            # File present but unreadable: a torn write.  Flag
                            # for the main loop to fail/resubmit this member,
                            # naming the attempt whose output was read.
                            self._flag_corrupt(
                                index, max(ok_attempts, default=1)
                            )
                        else:
                            self._note_missing(index)
                        continue
                    with self._fault_lock:
                        self._missing_sweeps.pop(index, None)
                    with self.telemetry.span("differ.add", index=index):
                        with acc_lock:
                            if accumulator.has_member(index):
                                continue
                            accumulator.add_member(index, forecast)
                            count = accumulator.count
                            # Zero-copy: written columns are immutable,
                            # so the view is safe to read after the lock
                            # is dropped.
                            view = accumulator.view() if count >= 2 else None
                        self._log("diff_added", f"member={index} count={count}")
                        if view is not None:
                            nbytes = self.covset.sync_from(view)
                            self.covset.publish()
                            self._log("publish", f"count={count}")
                            if self.metrics is not None:
                                self.metrics.counter("cov.bytes_written").inc(
                                    nbytes + self.covset.header_path.stat().st_size
                                )
                    new_any = True
                if stop.is_set() and not new_any:
                    return
                if not new_any:
                    time.sleep(self.poll_interval)

    def _svd_loop(
        self,
        criterion: ConvergenceCriterion,
        checkpoints: list[int],
        converged: threading.Event,
        stop: threading.Event,
        out: dict,
    ) -> None:
        """Continuously SVD the safe snapshot at ensemble-size checkpoints.

        Two accounting rules keep the convergence test honest against a
        differ running at any speed:

        - a snapshot whose count jumped past *several* checkpoints
          satisfies all of them at once (one SVD, all checkpoints
          advanced) instead of leaving them pending to fire spuriously
          on later same-count snapshots;
        - on shutdown, the last published snapshot always gets a final
          SVD if it holds members the loop has not factored yet -- the
          completed ensemble is never silently exempted from the
          convergence test just because it landed below the next
          checkpoint.
        """
        next_cp = 0
        last_version = -1
        estimator = self.config.subspace_estimator()

        def compute(snap, final: bool) -> None:
            self._log("svd_start", f"count={snap.count}")
            with self.telemetry.span("svd.compute", count=snap.count) as sp:
                subspace = estimator.update(snap.columns, snap.count, snap.scale)
                sp.set(path=estimator.last_path)
                if self.metrics is not None:
                    self.metrics.counter("svd.path", path=estimator.last_path).inc()
                rho = criterion.update(subspace, count=snap.count)
                sp.set(rank=subspace.rank)
            if self.metrics is not None:
                self.metrics.counter("svd_computations").inc()
            out["subspace"] = subspace
            out["count"] = snap.count
            self._log(
                "svd_done",
                f"count={snap.count} rank={subspace.rank}"
                + (f" rho={rho:.4f}" if rho is not None else "")
                + (" final=1" if final else ""),
            )
            if criterion.converged:
                self._log("converged", f"count={snap.count}")
                converged.set()

        with self.telemetry.span("svd.loop", parent=self._root_span):
            while not stop.is_set() and not converged.is_set():
                snap = self._read_snapshot()
                if snap is None or snap.version == last_version:
                    time.sleep(self.poll_interval)
                    continue
                last_version = snap.version
                if next_cp >= len(checkpoints) or snap.count < checkpoints[next_cp]:
                    continue
                # One snapshot can satisfy several growth checkpoints at
                # once (fast differ / slow poll): advance past all of
                # them -- they are all answered by this one SVD.
                while next_cp < len(checkpoints) and checkpoints[next_cp] <= snap.count:
                    next_cp += 1
                compute(snap, final=False)
                if converged.is_set():
                    return
            if not converged.is_set():
                # Shutdown drain: the completed ensemble's last snapshot
                # must be factored even when it sits below the next
                # checkpoint, or the convergence test silently skips the
                # final members.
                snap = self._read_snapshot()
                if (
                    snap is not None
                    and snap.count >= 2
                    and snap.count > out.get("count", 0)
                ):
                    compute(snap, final=True)

    # -- main -------------------------------------------------------------------

    def run(self, mean_state) -> WorkflowResult:
        """Execute the many-task pipeline until convergence/Nmax/Tmax."""
        with self.telemetry.span("workflow.run") as root:
            self._root_span = root
            try:
                return self._run(mean_state)
            finally:
                self._root_span = None

    def _run(self, mean_state) -> WorkflowResult:
        """The pipeline body, running inside the ``workflow.run`` span."""
        cfg = self.config
        with self._events_lock:
            self._events = []
            self._t0 = self._clock()
        with self._fault_lock:
            self._corrupt_found = []
            self._missing_sweeps = {}
        # A reused workflow starts from nothing -- empty covariance store,
        # no member records -- or the differ's first sweep would fold the
        # previous run's forecasts (and published header) into this one.
        self.covset.cleanup()
        self.covset = MemmapCovarianceStore(self.workdir)
        self.status.clear("pemodel")
        for path in self.members_dir.glob("forecast_*.npz"):
            path.unlink()
        started = self._t0

        with self.telemetry.span("central_forecast"):
            central = self.runner.central_forecast(mean_state)
        self._log("central_done")
        accumulator = AnomalyAccumulator(
            self.runner.model.layout, self.runner.model.to_vector(central)
        )
        criterion = ConvergenceCriterion(tolerance=cfg.convergence_tolerance)
        checkpoints = cfg.stage_sizes()

        stop = threading.Event()
        converged = threading.Event()
        acc_lock = new_lock("ParallelESSEWorkflow.acc_lock")
        svd_out: dict = {}

        thread_errors: list[BaseException] = []

        def guarded(target, *args):
            def body():
                try:
                    target(*args)
                except BaseException as exc:  # surface in the main thread
                    thread_errors.append(exc)
                    stop.set()
                    converged.set()  # unblock the main loop

            return body

        differ = threading.Thread(
            target=guarded(self._differ_loop, accumulator, stop, acc_lock),
            name="esse-differ",
        )
        svd_worker = threading.Thread(
            target=guarded(
                self._svd_loop, criterion, checkpoints, converged, stop, svd_out
            ),
            name="esse-svd",
        )
        differ.start()
        svd_worker.start()

        pool = TaskPool(
            "pemodel",
            _MemberTask(self.runner, mean_state, self.members_dir, self.status),
            self.n_workers,
            processes=self.use_processes,
            retry=self.retry,
            faults=self.faults,
            telemetry=self.telemetry,
            metrics=self.metrics,
            poll_interval=self.poll_interval,
            parent_span=self._root_span,
        )
        n_cancelled = 0
        try:
            with pool:
                next_index = 0

                def extend_pool(target: int) -> None:
                    nonlocal next_index
                    while next_index < target:
                        pool.submit(next_index)
                        next_index += 1
                    if self.metrics is not None:
                        self.metrics.gauge("pool_size").set(next_index)

                extend_pool(
                    min(
                        int(np.ceil(checkpoints[0] * self.pool_margin)),
                        cfg.max_ensemble_size,
                    )
                )
                self._log("pool", f"size={next_index}")

                unread: set[int] = set()  # succeeded, not yet read by the differ
                while not converged.is_set():
                    now = self._clock()
                    unread.difference_update(self._fail_corrupt(pool))
                    for out in pool.poll(now):
                        self._record(out)
                        if out.ok:
                            unread.add(out.index)
                    # keep the pool ahead of the next unreached checkpoint
                    pending_cp = [c for c in checkpoints if c > pool.n_resolved]
                    if pending_cp and next_index < cfg.max_ensemble_size:
                        want = min(
                            int(np.ceil(pending_cp[0] * self.pool_margin)),
                            cfg.max_ensemble_size,
                        )
                        if want > next_index:
                            extend_pool(want)
                            self._log("enlarge", f"size={next_index}")
                    if (
                        pool.all_resolved
                        and next_index >= cfg.max_ensemble_size
                        and self._differ_caught_up(unread, accumulator, acc_lock)
                    ):
                        break  # Nmax exhausted without convergence
                    if cfg.deadline_seconds is not None and (
                        self._clock() - started > cfg.deadline_seconds
                    ):
                        self._log("deadline")
                        break
                    time.sleep(self.poll_interval)

                # Cancellation of superfluous members (queued; running
                # ones finish while the pool closes)
                for idx in pool.cancel_pending():
                    n_cancelled += 1
                    self.status.write("pemodel", idx, TaskStatus.CANCELLED)
                    self._log("cancel", f"member={idx}")
            if self.cancellation is not CancellationPolicy.IMMEDIATE:
                # drain: the members that were still running are diffed
                for out in pool.poll(self._clock()):
                    self._record(out)
        finally:
            # let the differ fold in any drained results, then stop workers
            stop.set()
            differ.join()
            svd_worker.join()
        if thread_errors:
            raise RuntimeError(
                f"workflow component thread failed: {thread_errors[0]!r}"
            ) from thread_errors[0]

        # Final SVD over everything available ("another SVD calculation is
        # performed and all available results are used") unless IMMEDIATE.
        with acc_lock:
            final_count = accumulator.count
        if final_count >= 2 and (
            self.cancellation is not CancellationPolicy.IMMEDIATE
            and final_count > svd_out.get("count", 0)
        ):
            with acc_lock:
                view = accumulator.view()
            with self.telemetry.span("svd.final", count=final_count):
                subspace = cfg.subspace_estimator().update(
                    view.columns, view.count, view.scale
                )
                criterion.update(subspace)
            svd_out["subspace"] = subspace
            svd_out["count"] = final_count
            self._log("final_svd", f"count={final_count}")

        # Corruption discovered during the final drain is terminal (nothing
        # launches any more): record it so restart/monitoring see an
        # IO_FAILURE, not a phantom success.
        self._fail_corrupt(pool)

        if "subspace" not in svd_out:
            raise RuntimeError("parallel workflow finished without a subspace")

        lost = pool.lost
        degraded = bool(lost)
        if degraded:
            self._log("degraded", f"n_lost={len(lost)}")
            warnings.warn(
                f"ensemble degraded: {len(lost)} member(s) lost "
                "terminally (retries exhausted or disabled); the error "
                "subspace is estimated from the surviving members only "
                "(see docs/FAILURE_MODEL.md)",
                DegradedEnsembleWarning,
                stacklevel=2,
            )

        statuses = self.status.completed_indices("pemodel")
        n_completed = sum(1 for s in statuses.values() if s == TaskStatus.SUCCESS)
        n_failed = sum(
            1
            for s in statuses.values()
            if s
            in (TaskStatus.MODEL_FAILURE, TaskStatus.IO_FAILURE, TaskStatus.TIMED_OUT)
        )
        with acc_lock:
            member_ids = accumulator.member_ids
        with self._events_lock:
            events = tuple(self._events)
        if self.metrics is not None:
            self.metrics.gauge("members_completed", kind="pemodel").set(n_completed)
            self.metrics.gauge("members_failed", kind="pemodel").set(n_failed)
            self.metrics.gauge("members_cancelled", kind="pemodel").set(n_cancelled)
        return WorkflowResult(
            subspace=svd_out["subspace"],
            ensemble_size=svd_out["count"],
            converged=converged.is_set() or criterion.converged,
            convergence_history=tuple(criterion.history),
            events=events,
            n_completed=n_completed,
            n_failed=n_failed,
            n_cancelled=n_cancelled,
            wall_seconds=self._clock() - started,
            member_ids=member_ids,
            n_retried=pool.n_retried,
            n_timed_out=pool.n_timed_out,
            degraded=degraded,
        )
