"""The backend-selectable ensemble propagation engine.

The paper treats member propagation as a pool of independent tasks, but
on one shared-memory node the square-root-EnKF literature's formulation
is faster: keep the whole ensemble as a single ``(state_dim, N)`` matrix
and step every member with one pass of vectorized numpy.  This module
provides both, behind one interface:

- :class:`SerialBackend` -- one member at a time, in process (the Fig 3
  loop's propagation, kept as the bit-identity reference for batched);
- :class:`BatchedBackend` -- vectorized propagation via
  :meth:`~repro.core.ensemble.EnsembleRunner.run_members_batched`,
  *bit-identical* to the serial backend under a fixed seed;
- :class:`ProcessesBackend` -- a process-executor client of the one
  :class:`~repro.workflow.pool.TaskPool` whose workers write forecast
  columns straight into a :class:`SharedEnsembleBuffer`, feeding the
  covariance store without serializing member state.

:class:`EnsembleEngine` drives any backend through the one staged ESSE
loop, :func:`repro.core.ensemble.grow_ensemble` (propagate -> accumulate
-> SVD -> convergence test -> grow), with a column sink that publishes
to the memmap column store and factors the published snapshot.  Backend
choice is config-driven via the ``engine`` section of
:class:`repro.config.ExperimentConfig`.  See ``docs/ENSEMBLE_ENGINE.md``
for the backend matrix and N-vs-workers guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.core.covariance import AnomalyAccumulator
from repro.core.driver import ESSEConfig
from repro.core.ensemble import (
    EnsembleGrowth,
    EnsembleRunner,
    MemberResult,
    grow_ensemble,
)
from repro.core.taskmodel import warn_lost_members
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.workflow.covfile import MemmapCovarianceStore
from repro.workflow.faults import FaultInjector
from repro.workflow.monitor import ProgressMonitor
from repro.workflow.policies import RetryPolicy
from repro.workflow.pool import TaskPool
from repro.workflow.statefiles import StatusDirectory, TaskStatus

#: Backend names accepted by :func:`make_backend` and the config section.
BACKEND_NAMES = ("serial", "batched", "processes")


class EnsembleBackend:
    """Strategy interface: how one stage's members get propagated.

    A backend receives the engine (for the runner, status directory,
    telemetry and fault/retry policies), the mean state and the member
    indices of one growth stage, and must call ``deliver(result)`` once
    per member with a :class:`~repro.core.ensemble.MemberResult` --
    always from the thread that called :meth:`propagate`, so the engine
    needs no locks around its accumulator.

    ``members_per_task`` is the progress-accounting contract: how many
    members one status record written by this backend covers (1 for the
    per-member backends; the batch size for :class:`BatchedBackend`).
    :meth:`EnsembleEngine.progress_monitor` uses it so batched runs do
    not report 1/N progress.
    """

    #: Backend name (matches the config value and telemetry attributes).
    name: str = "abstract"
    #: Members covered by one status record (see class docstring).
    members_per_task: int = 1
    #: Status-record kind this backend writes.
    status_kind: str = "pemodel"

    def propagate(self, engine, mean_state, indices, deliver) -> None:
        """Run ``indices`` and hand each member's result to ``deliver``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (default: nothing to release)."""


class SerialBackend(EnsembleBackend):
    """One member at a time, in process -- the equivalence baseline."""

    name = "serial"

    def propagate(self, engine, mean_state, indices, deliver) -> None:
        """Run each member sequentially, delivering in index order."""
        for idx in indices:
            with engine.telemetry.span("pemodel", index=idx, backend=self.name):
                result = engine.runner.run_member(mean_state, idx)
            engine.status.write(
                "pemodel",
                idx,
                TaskStatus.SUCCESS if result.ok else TaskStatus.MODEL_FAILURE,
            )
            deliver(result)


class BatchedBackend(EnsembleBackend):
    """Vectorized propagation of whole member batches.

    The ensemble is packed into an ``(state_dim, N)`` matrix and every
    member steps in one pass of vectorized numpy
    (:meth:`~repro.core.ensemble.EnsembleRunner.run_members_batched`);
    trajectories are bit-identical to the serial backend under a fixed
    seed.  One *task* -- and therefore one status record, of kind
    ``pemodel_batch`` -- covers ``batch_size`` members, which is why
    :attr:`members_per_task` matters to progress monitoring.

    Parameters
    ----------
    batch_size:
        Members per vectorized batch.  Larger batches amortize numpy
        dispatch overhead further but cost ``O(batch_size)`` working
        memory; see docs/ENSEMBLE_ENGINE.md for guidance.
    """

    name = "batched"
    status_kind = "pemodel_batch"

    def __init__(self, batch_size: int = 8):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    @property
    def members_per_task(self) -> int:
        """One batch task covers ``batch_size`` members."""
        return self.batch_size

    def propagate(self, engine, mean_state, indices, deliver) -> None:
        """Run members in vectorized batches; deliver per member."""
        indices = list(indices)
        for lo in range(0, len(indices), self.batch_size):
            chunk = indices[lo : lo + self.batch_size]
            batch_no = engine.next_batch_no(len(chunk))
            with engine.telemetry.span(
                "pemodel.batch", batch=batch_no, size=len(chunk), backend=self.name
            ):
                results = engine.runner.run_members_batched(mean_state, chunk)
            any_ok = any(r.ok for r in results)
            engine.status.write(
                "pemodel_batch",
                batch_no,
                TaskStatus.SUCCESS if any_ok else TaskStatus.MODEL_FAILURE,
            )
            for result in results:
                deliver(result)


class SharedEnsembleBuffer:
    """An ``(state_dim, capacity)`` float64 column buffer in shared memory.

    One column per member *attempt*: every (member, attempt) pair owns a
    slot, so a column is written at most once and is immutable from
    the moment its worker's SUCCESS status lands (the same append-only
    discipline as the covariance column store).  Columns are NaN-filled
    at creation; a torn write -- a worker that died or a
    :class:`~repro.workflow.faults.FaultKind.CORRUPT` injection that
    stops half-way -- leaves NaNs in the tail, which is exactly what the
    parent-side validator checks before accepting a column.

    Lifecycle: the parent creates (and NaN-fills) the segment, workers
    attach by name on their first attempt and keep the mapping for the
    pool's lifetime, and the parent ``close()`` + ``unlink()`` in a
    ``finally`` once the batch is accumulated.  The engine's pools fork
    from the parent, so all processes share one resource tracker and the
    parent's unlink is the single point of truth.

    Parameters
    ----------
    state_dim:
        Rows (packed ESSE state dimension).
    capacity:
        Columns (member attempts the buffer can hold).
    name:
        Existing segment to attach to; None creates a new one.
    """

    def __init__(self, state_dim: int, capacity: int, name: str | None = None):
        if state_dim < 1 or capacity < 1:
            raise ValueError("state_dim and capacity must be >= 1")
        self.state_dim = int(state_dim)
        self.capacity = int(capacity)
        nbytes = self.state_dim * self.capacity * 8
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        # Column-major so each member's column is contiguous, matching
        # the covariance store's on-disk layout.
        self.array = np.ndarray(
            (self.state_dim, self.capacity),
            dtype=np.float64,
            order="F",
            buffer=self._shm.buf,
        )
        if self._owner:
            self.array.fill(np.nan)

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    def column(self, slot: int) -> np.ndarray:
        """The (contiguous, zero-copy) column view for one attempt slot."""
        if not 0 <= slot < self.capacity:
            raise IndexError(f"slot {slot} outside capacity {self.capacity}")
        return self.array[:, slot]

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        # The ndarray view must die before the mmap can close.
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment (owner-side, after all workers are done)."""
        if self._owner:
            self._shm.unlink()

    @classmethod
    def attach(cls, name: str, state_dim: int, capacity: int) -> "SharedEnsembleBuffer":
        """Attach to an existing segment created by the parent."""
        return cls(state_dim, capacity, name=name)


class _ShmMemberTask:
    """One member attempt writing its forecast column into shared memory.

    Shipped once to every worker process by the pool; each worker maps
    the segment on its first attempt and keeps the mapping for the
    pool's lifetime.  Every (member, attempt) owns one slot, so a column
    is written at most once.  The SUCCESS record lands only after the
    column bytes are in place, so it always refers to fully written (or
    deliberately torn) bytes, never a column still in flight.
    """

    def __init__(self, runner, mean_state, status, buffer, first_slot):
        self.runner = runner
        self.mean_state = mean_state
        self.status = status
        self.shm = (buffer.name, buffer.state_dim, buffer.capacity)
        self.first_slot = first_slot  # member index -> slot of attempt 1
        self._buffer = None

    def __call__(self, index, attempt, corrupt, cancel):
        if self._buffer is None:
            self._buffer = SharedEnsembleBuffer.attach(*self.shm)
        result = self.runner.run_member(self.mean_state, index)
        if not result.ok:
            return False, None, result.error
        slot = self.first_slot[index] + attempt - 1
        column = self._buffer.column(slot)
        if corrupt:
            # Torn write: half a column plus a success status -- the
            # shared-memory analogue of the differ's torn npz read, left
            # for the parent's finiteness validator to catch.
            half = result.forecast.size // 2
            column[:half] = result.forecast[:half]
        else:
            column[:] = result.forecast
        self.status.write("pemodel", index, TaskStatus.SUCCESS, attempt=attempt)
        return True, slot, None


class ProcessesBackend(EnsembleBackend):
    """A true process pool writing member state into shared memory.

    Workers run one member each and write the forecast vector straight
    into their attempt's column of a :class:`SharedEnsembleBuffer`; the
    parent validates the column (a NaN tail means a torn write) and
    hands the *same bytes* to the anomaly accumulator feeding the memmap
    covariance store -- member state never rides through a pickled
    Future or an npz member file.

    Retry, backoff, submit-failure and fault-injection semantics are the
    :class:`~repro.workflow.pool.TaskPool`'s (``docs/FAILURE_MODEL.md``);
    the backend's own part is the torn-column check: an attempt that
    reported success over a half-written column is failed back to the
    pool (IO_FAILURE) and reruns into a *fresh* slot.  Lost members
    degrade the ensemble gracefully.

    Parameters
    ----------
    n_workers:
        Process-pool width.
    """

    name = "processes"

    def __init__(self, n_workers: int = 2):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    def propagate(self, engine, mean_state, indices, deliver) -> None:
        """Run members on a process pool via the shared-memory buffer."""
        indices = list(indices)
        if not indices:
            return
        retry = engine.retry
        max_attempts = retry.max_attempts if retry is not None else 1
        buffer = SharedEnsembleBuffer(
            engine.runner.model.layout.size, len(indices) * max_attempts
        )
        try:
            pool = TaskPool(
                "pemodel",
                _ShmMemberTask(
                    engine.runner,
                    mean_state,
                    engine.status,
                    buffer,
                    {idx: k * max_attempts for k, idx in enumerate(indices)},
                ),
                self.n_workers,
                processes=True,
                retry=retry,
                faults=engine.faults,
                telemetry=engine.telemetry,
                metrics=engine.metrics,
            )
            for out in pool.run(indices):
                if out.ok:
                    column = buffer.column(out.value)
                    if np.all(np.isfinite(column)):
                        # Zero-copy: the result aliases the shared segment;
                        # the engine's deliver copies it into the
                        # accumulator before the buffer is unlinked below.
                        deliver(MemberResult(out.index, column))
                        continue
                    # Torn write: the worker reported success but the
                    # column carries the NaN fill in its tail.
                    out = pool.fail(
                        out.index, out.attempt, "torn shared-memory column"
                    )
                    status = TaskStatus.IO_FAILURE
                elif not out.submit_try:
                    status = TaskStatus.MODEL_FAILURE
                elif out.lost:
                    status = TaskStatus.IO_FAILURE  # submission path dead
                else:
                    continue  # transient submit failure, re-queued
                engine.status.write("pemodel", out.index, status, attempt=out.attempt)
                if out.lost:
                    deliver(MemberResult(out.index, None, out.error))
                else:
                    engine.note_retry(out.index, out.attempt + 1, out.error)
        finally:
            buffer.close()
            buffer.unlink()


def make_backend(
    name: str, n_workers: int = 4, batch_size: int = 8
) -> EnsembleBackend:
    """Construct an :class:`EnsembleBackend` from its config name.

    ``name`` is one of :data:`BACKEND_NAMES`; ``n_workers`` is the pool
    width of ``processes``, ``batch_size`` the batch width of ``batched``.
    """
    if name == "serial":
        return SerialBackend()
    if name == "batched":
        return BatchedBackend(batch_size=batch_size)
    if name == "processes":
        return ProcessesBackend(n_workers=n_workers)
    raise ValueError(f"unknown backend {name!r}; valid: {BACKEND_NAMES}")


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


@dataclass
class EngineResult(EnsembleGrowth):
    """Outcome of one :class:`EnsembleEngine` run."""

    n_retried: int
    wall_seconds: float
    backend: str
    degraded: bool = False  # members lost terminally; subspace from survivors


class EnsembleEngine:
    """Staged ESSE ensemble growth over a selectable propagation backend.

    The control flow is :func:`~repro.core.ensemble.grow_ensemble`, the
    loop :class:`~repro.core.driver.ESSEDriver` also runs; the engine
    delegates propagation to an :class:`EnsembleBackend` and sinks
    columns append-only into the
    :class:`~repro.workflow.covfile.MemmapCovarianceStore` (``O(n)``
    bytes per member), whose published prefix the SVD reads zero-copy.

    Parameters
    ----------
    runner:
        Ensemble runner shared by all members.
    config:
        ESSE sizing/convergence configuration.
    workdir:
        Working directory (status records + covariance column store).
    backend:
        An :class:`EnsembleBackend` instance, or a name for
        :func:`make_backend` with its defaults.
    retry:
        Resubmission policy, honoured by the ``processes`` backend (the
        in-process backends capture failures without raising, matching
        the seed semantics where a member failure is terminal).
    faults:
        Deterministic fault injector, honoured by the ``processes``
        backend.
    telemetry:
        Span recorder; also supplies the engine's only clock.
    metrics:
        Optional registry fed covariance byte counts and retry counters.
    """

    def __init__(
        self,
        runner: EnsembleRunner,
        config: ESSEConfig,
        workdir: str | Path,
        backend: EnsembleBackend | str = "batched",
        retry: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
        telemetry=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.runner = runner
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.status = StatusDirectory(self.workdir / "status")
        self.store = MemmapCovarianceStore(self.workdir)
        self.backend = (
            make_backend(backend) if isinstance(backend, str) else backend
        )
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        self._clock = self.telemetry.clock
        self._batch_counter = 0
        self._batch_sizes: dict[int, int] = {}
        self._n_retried = 0

    # -- backend services --------------------------------------------------

    def next_batch_no(self, size: int = 1) -> int:
        """Allocate the next batch-task index, recording its member count
        (the exact per-batch sizes feed :meth:`progress_monitor`)."""
        n = self._batch_counter
        self._batch_counter += 1
        self._batch_sizes[n] = size
        return n

    def note_retry(self, index: int, attempt: int, why: str) -> None:
        """Count one resubmission (processes backend bookkeeping)."""
        self._n_retried += 1
        self.telemetry.event("retry", index=index, attempt=attempt, why=why)

    # -- monitoring --------------------------------------------------------

    def progress_monitor(
        self,
        expected_members: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> ProgressMonitor:
        """A member-accurate progress monitor for this engine's backend.

        Batched runs write one status record per batch *task*; the
        returned monitor carries the exact member count of every batch
        the engine has recorded so progress and ETA are reported in
        member units, not task units (the 1/N-progress bug this
        parameter exists to fix).  Exact sizes matter because batching
        happens within each growth stage: a stage of 4 members batched
        in threes yields batches of 3 and 1, and a uniform
        ``batch_size`` weight would over-count both stages.  Before the
        engine has run, the backend's uniform weight is used instead.
        """
        n = (
            int(expected_members)
            if expected_members is not None
            else self.config.max_ensemble_size
        )
        weight = self.backend.members_per_task
        kind = self.backend.status_kind
        if self._batch_sizes:
            members_per_task = {kind: dict(self._batch_sizes)}
        elif weight > 1:
            members_per_task = {kind: weight}
        else:
            members_per_task = None
        return ProgressMonitor(
            self.status,
            {kind: n},
            clock=self._clock,
            metrics=metrics,
            members_per_task=members_per_task,
        )

    # -- main loop ---------------------------------------------------------

    def run(self, mean_state) -> EngineResult:
        """Grow the ensemble until convergence, Nmax or Tmax."""
        started = self._clock()
        # A reused engine starts from an empty column store and fresh
        # batch bookkeeping, not from the previous run's tail.
        self.store.cleanup()
        self.store = MemmapCovarianceStore(self.workdir)
        self._batch_counter = 0
        self._batch_sizes = {}
        self._n_retried = 0
        with self.telemetry.span("engine.run", backend=self.backend.name):
            with self.telemetry.span("central_forecast"):
                central = self.runner.central_forecast(mean_state)
            model = self.runner.model
            try:
                growth = grow_ensemble(
                    self.config,
                    lambda indices, deliver: self.backend.propagate(
                        self, mean_state, indices, deliver
                    ),
                    _PublishedColumns(
                        model.layout, model.to_vector(central), self.store, self.metrics
                    ),
                    telemetry=self.telemetry,
                    started=started,
                )
            finally:
                self.backend.close()
                # The column store's write handles are only needed while the
                # run appends; the published files stay readable after close.
                self.store.close()

        n_lost = len(growth.failed_members)
        if n_lost:
            warn_lost_members(n_lost)
        return EngineResult(
            **vars(growth),
            n_retried=self._n_retried,
            wall_seconds=self._clock() - started,
            backend=self.backend.name,
            degraded=n_lost > 0,
        )
