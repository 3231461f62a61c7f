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
- :class:`ProcessesBackend` -- the Fig 4 member pool
  (:class:`~repro.workflow.parallel.MemberPool`) on worker processes,
  entered once per run, its tasks member batches of ``batch_size``.

:class:`EnsembleEngine` drives any backend through the one staged ESSE
loop, :func:`repro.core.ensemble.grow_ensemble`, with a column sink that
publishes to the memmap column store and factors the published
snapshot.  The ``engine`` section of :class:`repro.config.ExperimentConfig`
picks the backend; ``docs/ENSEMBLE_ENGINE.md`` has the backend matrix and
N-vs-workers guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.driver import ESSEConfig
from repro.core.ensemble import EnsembleGrowth, EnsembleRunner, grow_ensemble
from repro.core.taskmodel import warn_lost_members
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.workflow.covfile import MemmapCovarianceStore
from repro.workflow.faults import FaultInjector
from repro.workflow.parallel import MemberPool, _PublishedColumns
from repro.workflow.policies import RetryPolicy
from repro.workflow.statefiles import StatusDirectory, TaskStatus

#: Backend names accepted by :func:`make_backend` and the config section.
BACKEND_NAMES = ("serial", "batched", "processes")


class EnsembleBackend:
    """Strategy interface: how one stage's members get propagated.

    A backend receives the engine (runner, status directory, telemetry,
    fault/retry policies), the mean state and one growth stage's member
    indices, and calls ``deliver(result)`` once per member with a
    :class:`~repro.core.ensemble.MemberResult`, always from the thread
    that called :meth:`propagate` (the engine's accumulator has no lock).
    Every backend writes ``pemodel`` status records, which the status
    directory's scans count in members however many one record names.
    """

    #: Backend name (matches the config value and telemetry attributes).
    name: str = "abstract"
    #: Resubmissions in the last run (only a pool-backed backend retries).
    n_retried: int = 0

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
            status = TaskStatus.SUCCESS if result.ok else TaskStatus.MODEL_FAILURE
            engine.status.write("pemodel", idx, status)
            deliver(result)


class BatchedBackend(EnsembleBackend):
    """Vectorized propagation of whole member batches.

    Every member of a batch steps in one pass of vectorized numpy
    (:meth:`~repro.core.ensemble.EnsembleRunner.run_members_batched`),
    bit-identical to the serial backend under a fixed seed.  One status
    record covers a whole batch: a SUCCESS record naming the members that
    completed, and a MODEL_FAILURE record naming any that blew up.

    Parameters
    ----------
    batch_size:
        Members per vectorized batch.  Larger batches amortize numpy
        dispatch overhead further but cost ``O(batch_size)`` working
        memory; see docs/ENSEMBLE_ENGINE.md for guidance.
    """

    name = "batched"

    def __init__(self, batch_size: int = 8):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def propagate(self, engine, mean_state, indices, deliver) -> None:
        """Run members in vectorized batches; deliver per member."""
        indices = list(indices)
        for lo in range(0, len(indices), self.batch_size):
            chunk = indices[lo : lo + self.batch_size]
            with engine.telemetry.span(
                "pemodel.batch", index=chunk[0], size=len(chunk), backend=self.name
            ):
                results = engine.runner.run_members_batched(mean_state, chunk)
            statuses = {True: TaskStatus.SUCCESS, False: TaskStatus.MODEL_FAILURE}
            for ok, status in statuses.items():
                members = [r.member_index for r in results if r.ok is ok]
                if members:
                    engine.status.write_batch("pemodel", members, status, attempt=1)
            for result in results:
                deliver(result)


class ProcessesBackend(EnsembleBackend):
    """The Fig 4 member pool on worker processes, for the whole run.

    A run's first :meth:`propagate` enters one
    :class:`~repro.workflow.parallel.MemberPool` with ``processes=True``
    under the engine's working directory, every stage runs on it, and
    :meth:`close` leaves it.  A task is a batch of members, which travels
    back as one batch file, as from the paper's remote hosts; retries
    (per member), torn-file detection, status records and degradation
    are the member pool's (``docs/FAILURE_MODEL.md``).  At margin 1 it
    holds exactly the stage being grown, so the engine checks at the
    stage sizes.

    Parameters
    ----------
    n_workers:
        Process-pool width.
    batch_size:
        Members per task (``engine.batch_size``).
    """

    name = "processes"

    def __init__(self, n_workers: int = 2, batch_size: int = 8):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.n_workers = n_workers
        self.batch_size = batch_size
        self._members: MemberPool | None = None

    def propagate(self, engine, mean_state, indices, deliver) -> None:
        """Run a stage's members on the run's one process pool."""
        if self._members is None:
            self._members = MemberPool(
                engine.runner,
                mean_state,
                engine.workdir,
                engine.status,
                self.n_workers,
                engine.config.max_ensemble_size,
                processes=True,
                batch_size=self.batch_size,
                retry=engine.retry,
                faults=engine.faults,
                telemetry=engine.telemetry,
                metrics=engine.metrics,
            ).__enter__()
        self._members.propagate(indices, deliver)

    def close(self) -> None:
        """Leave the run's member pool: cancel the queue, wait for workers."""
        members, self._members = self._members, None
        if members is not None:
            members.__exit__(None, None, None)
            self.n_retried = members.pool.n_retried


def make_backend(name: str, n_workers: int = 4, batch_size: int = 8) -> EnsembleBackend:
    """Construct an :class:`EnsembleBackend` from its config name.

    ``name`` is one of :data:`BACKEND_NAMES`; ``n_workers`` is the pool
    width of ``processes``, ``batch_size`` the batch width of ``batched``
    and ``processes``.
    """
    if name == "serial":
        return SerialBackend()
    if name == "batched":
        return BatchedBackend(batch_size=batch_size)
    if name == "processes":
        return ProcessesBackend(n_workers=n_workers, batch_size=batch_size)
    raise ValueError(f"unknown backend {name!r}; valid: {BACKEND_NAMES}")


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
    retry, faults:
        Resubmission policy and fault injector, honoured by the
        ``processes`` backend (in process a member failure is terminal).
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
        self.backend = make_backend(backend) if isinstance(backend, str) else backend
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        self._clock = self.telemetry.clock

    # -- main loop ---------------------------------------------------------

    def run(self, mean_state) -> EngineResult:
        """Grow the ensemble until convergence, Nmax or Tmax."""
        started = self._clock()
        # A reused engine starts from an empty column store, not from the
        # previous run's tail.
        self.store.cleanup()
        self.store = MemmapCovarianceStore(self.workdir)
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
            n_retried=self.backend.n_retried,
            wall_seconds=self._clock() - started,
            backend=self.backend.name,
            degraded=n_lost > 0,
        )
