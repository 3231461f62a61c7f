"""The ensemble propagation engine: vectorized member batches over a memmap sink.

The paper treats member propagation as a pool of independent tasks, but
on one shared-memory node the square-root-EnKF literature's formulation
is faster: keep the whole ensemble as a single ``(state_dim, N)`` matrix
and step every member with one pass of vectorized numpy.
:class:`EnsembleEngine` does that, stepping each stage's members in
batches of ``batch_size`` with
:meth:`~repro.core.ensemble.EnsembleRunner.run_members_batched`
(bit-identical to
:meth:`~repro.core.ensemble.EnsembleRunner.run_member` under a fixed
seed), through the one staged ESSE loop,
:func:`repro.core.ensemble.grow_ensemble`, with a column sink that
publishes to the memmap column store and factors the published snapshot.
Process-parallel members are the Fig 4 pipeline,
:class:`~repro.workflow.parallel.ParallelESSEWorkflow` with
``use_processes=True``; ``docs/ENSEMBLE_ENGINE.md`` has the guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.core.driver import ESSEConfig
from repro.core.ensemble import EnsembleGrowth, EnsembleRunner, grow_ensemble
from repro.core.taskmodel import warn_lost_members
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.workflow.covfile import MemmapCovarianceStore
from repro.workflow.parallel import _PublishedColumns
from repro.workflow.statefiles import StatusDirectory, TaskStatus


@dataclass
class EngineResult(EnsembleGrowth):
    """Outcome of one :class:`EnsembleEngine` run."""

    wall_seconds: float
    degraded: bool = False  # members lost terminally; subspace from survivors


class EnsembleEngine:
    """Staged ESSE ensemble growth over vectorized member batches.

    The control flow is :func:`~repro.core.ensemble.grow_ensemble`, the
    loop :class:`~repro.core.driver.ESSEDriver` also runs; the engine
    steps members in batches and sinks columns append-only into the
    :class:`~repro.workflow.covfile.MemmapCovarianceStore` (``O(n)``
    bytes per member), whose published prefix the SVD reads zero-copy.
    A member that blows up is failed terminally; its batch siblings are
    unaffected.

    Parameters
    ----------
    runner:
        Ensemble runner shared by all members.
    config:
        ESSE sizing/convergence configuration.
    workdir:
        Working directory (status records + covariance column store).
    batch_size:
        Members per vectorized batch.  Larger batches amortize numpy
        dispatch overhead further but cost ``O(batch_size)`` working
        memory; see docs/ENSEMBLE_ENGINE.md for guidance.
    telemetry:
        Span recorder; also supplies the engine's only clock.
    metrics:
        Optional registry fed covariance byte counts.
    """

    def __init__(
        self,
        runner: EnsembleRunner,
        config: ESSEConfig,
        workdir: str | Path,
        batch_size: int = 8,
        telemetry=None,
        metrics: MetricsRegistry | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.runner = runner
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.status = StatusDirectory(self.workdir / "status")
        self.store = MemmapCovarianceStore(self.workdir)
        self.batch_size = batch_size
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        self._clock = self.telemetry.clock

    def propagate(self, mean_state, indices, deliver) -> None:
        """Run ``indices`` in vectorized batches; deliver per member.

        One status record covers a whole batch: a SUCCESS record naming
        the members that completed, and a MODEL_FAILURE record naming any
        that blew up.
        """
        indices = list(indices)
        for lo in range(0, len(indices), self.batch_size):
            chunk = indices[lo : lo + self.batch_size]
            with self.telemetry.span("pemodel.batch", index=chunk[0], size=len(chunk)):
                results = self.runner.run_members_batched(mean_state, chunk)
            statuses = {True: TaskStatus.SUCCESS, False: TaskStatus.MODEL_FAILURE}
            for ok, status in statuses.items():
                members = [r.member_index for r in results if r.ok is ok]
                if members:
                    self.status.write_batch("pemodel", members, status, attempt=1)
            for result in results:
                deliver(result)

    def run(self, mean_state) -> EngineResult:
        """Grow the ensemble until convergence, Nmax or Tmax."""
        started = self._clock()
        # A reused engine starts from an empty column store, not from the
        # previous run's tail.
        self.store.cleanup()
        self.store = MemmapCovarianceStore(self.workdir)
        with self.telemetry.span("engine.run"):
            with self.telemetry.span("central_forecast"):
                central = self.runner.central_forecast(mean_state)
            model = self.runner.model
            try:
                growth = grow_ensemble(
                    self.config,
                    partial(self.propagate, mean_state),
                    _PublishedColumns(
                        model.layout, model.to_vector(central), self.store, self.metrics
                    ),
                    telemetry=self.telemetry,
                    started=started,
                )
            finally:
                # The column store's write handles are only needed while the
                # run appends; the published files stay readable after close.
                self.store.close()

        n_lost = len(growth.failed_members)
        if n_lost:
            warn_lost_members(n_lost)
        return EngineResult(
            **vars(growth),
            wall_seconds=self._clock() - started,
            degraded=n_lost > 0,
        )
