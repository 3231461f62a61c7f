"""The serial ESSE shepherd (paper Fig 3), instrumented.

A loop of N ensemble members is calculated (perturb + forecast), then the
diff loop appends each member's difference from the central forecast to a
single covariance file, then the SVD runs, then the convergence test; on
failure the ensemble grows to N2 and the process repeats for members
N+1..N2.  The stages, SVD and test are
:func:`repro.core.ensemble.grow_ensemble`, the loop every staged run
shares; the shepherd supplies its ``propagate`` (the perturb/forecast
loop, then the in-order diff loop) and its sink (the one covariance
file).  The implementation deliberately preserves the four bottlenecks
the paper lists:

1. the diff loop cannot start before the perturb/forecast loop finishes;
2. the diff loop writes one shared file, in perturbation order;
3. the SVD waits for the diff loop;
4. the SVD/convergence is a large serial computation.

Phase timings are telemetry spans (``serial.pert_forecast`` /
``serial.diff`` per round, and the loop's ``stage.svd``): the
:class:`SerialTimings` table the Fig 3 bench displays is *derived* from
the recorded spans rather than kept in hand-rolled lists, so the same
run exports the same Chrome-trace timeline as the parallel workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.covariance import AnomalyAccumulator, AnomalyView
from repro.core.driver import ESSEConfig
from repro.core.ensemble import EnsembleRunner, MemberResult, grow_ensemble
from repro.core.subspace import ErrorSubspace
from repro.telemetry.spans import TraceRecorder
from repro.util.fsio import durable_write
from repro.workflow.statefiles import StatusDirectory, TaskStatus


@dataclass
class SerialTimings:
    """Per-round phase durations (seconds)."""

    round_sizes: list[int] = field(default_factory=list)
    pert_forecast: list[float] = field(default_factory=list)
    diff: list[float] = field(default_factory=list)
    svd_conv: list[float] = field(default_factory=list)

    @classmethod
    def from_spans(cls, spans) -> SerialTimings:
        """Rebuild the per-round phase table from recorded telemetry spans.

        Accepts any span iterable (a recorder's or a parsed run log's);
        spans other than ``serial.<phase>`` and ``stage.svd`` are
        ignored.  A round whose members added no column is not factored,
        so it has no ``svd_conv`` entry.
        """
        timings = cls()
        for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
            if span.name == "stage.svd":  # the loop's SVD + convergence test
                timings.svd_conv.append(span.duration)
                timings.round_sizes.append(int(span.attr("count", 0)))
            elif span.name == "serial.pert_forecast":
                timings.pert_forecast.append(span.duration)
            elif span.name == "serial.diff":
                timings.diff.append(span.duration)
        return timings

    @property
    def total(self) -> float:
        """Total shepherd wall time across rounds."""
        return sum(self.pert_forecast) + sum(self.diff) + sum(self.svd_conv)

    def phase_fractions(self) -> dict[str, float]:
        """Fraction of total time per phase."""
        total = self.total or 1.0
        return {
            "pert_forecast": sum(self.pert_forecast) / total,
            "diff": sum(self.diff) / total,
            "svd_conv": sum(self.svd_conv) / total,
        }


@dataclass
class SerialResult:
    """Outcome of the serial workflow."""

    subspace: ErrorSubspace
    ensemble_size: int
    converged: bool
    convergence_history: tuple[tuple[int, float], ...]
    timings: SerialTimings
    failed_members: tuple[int, ...]


class _CovarianceFile(AnomalyAccumulator):
    """Fig 3's column sink: the one covariance file.

    Every member rewrites the whole file -- the serial implementation's
    "large file" write bottleneck -- and the SVD factors what it reads
    back from that file.
    """

    def __init__(self, layout, central, path: Path):
        super().__init__(layout, central)
        self.path = path

    def add_member(self, member_index: int, forecast: np.ndarray) -> None:
        """Fold one member, then rewrite the covariance file."""
        super().add_member(member_index, forecast)
        if self.count >= 2:
            view = super().view()
            durable_write(
                self.path,
                lambda fh: np.savez(
                    fh, columns=view.columns, member_ids=view.member_ids
                ),
            )

    def view(self) -> AnomalyView:
        """The columns as the covariance file holds them."""
        with np.load(self.path) as data:
            return AnomalyView(
                columns=data["columns"],
                member_ids=tuple(data["member_ids"].tolist()),
                version=self.version,
            )


class SerialESSEWorkflow:
    """Fig 3: the serial job shepherd.

    Parameters
    ----------
    runner:
        Ensemble runner (perturb + forecast of one member).
    config:
        ESSE sizing/convergence configuration.
    workdir:
        Working directory for member files, the covariance file and the
        status directory.

    The phase spans go to a private
    :class:`~repro.telemetry.spans.TraceRecorder` (``telemetry``, which
    also supplies the clock), so :class:`SerialTimings` -- which is derived
    from the spans -- is always available.
    """

    def __init__(
        self,
        runner: EnsembleRunner,
        config: ESSEConfig,
        workdir: str | Path,
    ):
        self.runner = runner
        self.config = config
        self.workdir = Path(workdir)
        (self.workdir / "members").mkdir(parents=True, exist_ok=True)
        self.status = StatusDirectory(self.workdir / "status")
        self.cov_path = self.workdir / "covariance.npz"
        self.telemetry = TraceRecorder()

    def _member_path(self, index: int) -> Path:
        return self.workdir / "members" / f"forecast_{index:05d}.npz"

    def _propagate(self, mean_state, indices: range, deliver) -> None:
        """One round: the perturb/forecast loop, then the diff loop."""
        recorder = self.telemetry
        # --- perturb/forecast loop (bottleneck 1: fully serial) -------------
        with recorder.span("serial.pert_forecast", size=len(indices)):
            for j in indices:
                # Restart path (Sec 4.2): a member that already reported
                # success on a previous run is reused from its file
                # instead of being recomputed.
                path = self._member_path(j)
                if self.status.succeeded("pemodel", j) and path.exists():
                    continue
                result = self.runner.run_member(mean_state, j)
                if result.ok:
                    np.savez(path, forecast=result.forecast)
                    self.status.write("pemodel", j, TaskStatus.SUCCESS)
                else:
                    self.status.write("pemodel", j, TaskStatus.MODEL_FAILURE)
                    deliver(result)
        # --- diff loop (bottleneck 2: one shared file, in order) ------------
        with recorder.span("serial.diff", size=len(indices)):
            for j in indices:
                if self.status.succeeded("pemodel", j):
                    with np.load(self._member_path(j)) as data:
                        deliver(MemberResult(j, data["forecast"]))

    def run(self, mean_state) -> SerialResult:
        """Execute the serial shepherd until convergence, Nmax or Tmax."""
        recorder = self.telemetry
        central = self.runner.central_forecast(mean_state)
        started = recorder.clock()
        sink = _CovarianceFile(
            self.runner.model.layout,
            self.runner.model.to_vector(central),
            self.cov_path,
        )
        with recorder.span("workflow.serial"):
            # Bottlenecks 3 and 4: the loop's SVD waits for the round.
            growth = grow_ensemble(
                self.config,
                lambda indices, deliver: self._propagate(mean_state, indices, deliver),
                sink,
                telemetry=recorder,
                started=started,
            )
        return SerialResult(
            subspace=growth.subspace,
            ensemble_size=growth.ensemble_size,
            converged=growth.converged,
            convergence_history=growth.convergence_history,
            timings=SerialTimings.from_spans(
                s for s in recorder.spans() if s.start >= started
            ),
            failed_members=growth.failed_members,
        )
