"""The serial ESSE shepherd (paper Fig 3), instrumented.

A loop of N ensemble members is calculated (perturb + forecast), then the
diff loop appends each member's difference from the central forecast to a
single covariance file, then the SVD runs, then the convergence test; on
failure the ensemble grows to N2 and the process repeats for members
N+1..N2.  The implementation deliberately preserves the four bottlenecks
the paper lists:

1. the diff loop cannot start before the perturb/forecast loop finishes;
2. the diff loop writes one shared file, in perturbation order;
3. the SVD waits for the diff loop;
4. the SVD/convergence is a large serial computation.

Phase timings are telemetry spans (``serial.pert_forecast`` /
``serial.diff`` / ``serial.svd_conv``, one per round): the
:class:`SerialTimings` table the Fig 3 bench displays is *derived* from
the recorded spans rather than kept in hand-rolled lists, so the same
run exports the same Chrome-trace timeline as the parallel workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.covariance import AnomalyAccumulator
from repro.core.driver import ESSEConfig
from repro.core.ensemble import EnsembleRunner
from repro.core.subspace import ErrorSubspace
from repro.telemetry.spans import TraceRecorder
from repro.util.fsio import durable_write
from repro.workflow.statefiles import StatusDirectory, TaskStatus

#: Span-name prefix shared by the serial shepherd's phase spans.
PHASE_PREFIX = "serial."


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
        spans not named ``serial.<phase>`` are ignored, so a recorder
        shared with other subsystems still yields the right table.
        """
        timings = cls()
        ordered = sorted(
            (s for s in spans if s.name.startswith(PHASE_PREFIX)),
            key=lambda s: (s.start, s.span_id),
        )
        for span in ordered:
            phase = span.name[len(PHASE_PREFIX):]
            if phase == "pert_forecast":
                timings.pert_forecast.append(span.duration)
            elif phase == "diff":
                timings.diff.append(span.duration)
            elif phase == "svd_conv":
                timings.svd_conv.append(span.duration)
                timings.round_sizes.append(int(span.attr("count", 0)))
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
    telemetry:
        Optional :class:`~repro.telemetry.spans.TraceRecorder` that
        receives the phase spans (and supplies the clock).  When None a
        private recorder is used, so :class:`SerialTimings` -- which is
        derived from the spans -- is always available.
    """

    def __init__(
        self,
        runner: EnsembleRunner,
        config: ESSEConfig,
        workdir: str | Path,
        telemetry: TraceRecorder | None = None,
    ):
        self.runner = runner
        self.config = config
        self.workdir = Path(workdir)
        (self.workdir / "members").mkdir(parents=True, exist_ok=True)
        self.status = StatusDirectory(self.workdir / "status")
        self.cov_path = self.workdir / "covariance.npz"
        self.telemetry = telemetry if telemetry is not None else TraceRecorder()

    def _member_path(self, index: int) -> Path:
        return self.workdir / "members" / f"forecast_{index:05d}.npz"

    def run(self, mean_state) -> SerialResult:
        """Execute the serial shepherd until convergence, Nmax or Tmax."""
        cfg = self.config
        recorder = self.telemetry
        clock = recorder.clock
        central = self.runner.central_forecast(mean_state)
        central_vec = self.runner.model.to_vector(central)
        accumulator = AnomalyAccumulator(self.runner.model.layout, central_vec)
        criterion = ConvergenceCriterion(tolerance=cfg.convergence_tolerance)
        failed: list[int] = []
        next_index = 0
        subspace: ErrorSubspace | None = None
        started = clock()

        with recorder.span("workflow.serial"):
            for round_no, stage_target in enumerate(cfg.stage_sizes()):
                # --- perturb/forecast loop (bottleneck 1: fully serial) ---
                batch = range(next_index, stage_target)
                next_index = stage_target
                with recorder.span(
                    "serial.pert_forecast", round=round_no, size=len(batch)
                ):
                    for j in batch:
                        # Restart path (Sec 4.2): a member that already
                        # reported success on a previous run is reused from
                        # its file instead of being recomputed.
                        if self.status.succeeded(
                            "pemodel", j
                        ) and self._member_path(j).exists():
                            continue
                        result = self.runner.run_member(mean_state, j)
                        if result.ok:
                            np.savez(self._member_path(j), forecast=result.forecast)
                            self.status.write("pemodel", j, TaskStatus.SUCCESS)
                        else:
                            failed.append(j)
                            self.status.write(
                                "pemodel", j, TaskStatus.MODEL_FAILURE
                            )

                # --- diff loop (bottleneck 2: one shared file, in order) --
                with recorder.span("serial.diff", round=round_no):
                    for j in sorted(self.status.successful_indices("pemodel")):
                        if accumulator.has_member(j):
                            continue
                        with np.load(self._member_path(j)) as data:
                            accumulator.add_member(j, data["forecast"])
                        # rewrite the single covariance file after every
                        # member -- the serial implementation's "large
                        # file" write bottleneck
                        if accumulator.count >= 2:
                            durable_write(
                                self.cov_path,
                                lambda fh: np.savez(
                                    fh,
                                    anomalies=accumulator.matrix(),
                                    member_ids=accumulator.member_ids,
                                ),
                            )

                # --- SVD + convergence (bottlenecks 3 and 4) ---------------
                with recorder.span(
                    "serial.svd_conv", round=round_no, count=accumulator.count
                ):
                    if accumulator.count >= 2:
                        with np.load(self.cov_path) as data:
                            anomalies = data["anomalies"]
                        subspace = ErrorSubspace.from_anomalies(
                            anomalies,
                            rank=cfg.max_subspace_rank,
                            energy=cfg.svd_energy,
                        )
                        criterion.update(subspace)

                if criterion.converged:
                    break
                if cfg.deadline_seconds is not None and (
                    clock() - started > cfg.deadline_seconds
                ):
                    break

        if subspace is None:
            raise RuntimeError("no ensemble members survived the serial workflow")
        timings = SerialTimings.from_spans(
            s for s in recorder.spans() if s.start >= started
        )
        return SerialResult(
            subspace=subspace,
            ensemble_size=accumulator.count,
            converged=criterion.converged,
            convergence_history=tuple(criterion.history),
            timings=timings,
            failed_members=tuple(failed),
        )
