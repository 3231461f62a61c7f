"""Progress monitoring from the shared status directory.

Paper Sec 5.3.1: remote submission "gives no easy way for the user to
monitor the progress of one's jobs (other than to try to monitor the
contents of the submission/completion directories)".  Since those
per-index status files are exactly what :class:`StatusDirectory` manages,
this module makes that monitoring first-class: progress counts, throughput
and an ETA computed from the directory alone -- no scheduler access needed,
which is the point for jobs scattered across Grid sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.clock import MONOTONIC
from repro.telemetry.metrics import MetricsRegistry
from repro.workflow.statefiles import StatusDirectory, TaskStatus


@dataclass(frozen=True)
class ProgressReport:
    """Snapshot of one task kind's progress."""

    kind: str
    expected: int
    succeeded: int
    failed: int
    cancelled: int
    throughput_per_minute: float  # completions/minute since monitoring began
    eta_seconds: float | None  # None until throughput is measurable
    n_retried: int = 0  # resubmitted executions (attempt records beyond the 1st)
    n_timed_out: int = 0  # straggler attempts cancelled past their deadline

    @property
    def reported(self) -> int:
        """Tasks that wrote any status."""
        return self.succeeded + self.failed + self.cancelled

    @property
    def pending(self) -> int:
        """Tasks still unreported."""
        return max(self.expected - self.reported, 0)

    @property
    def complete(self) -> bool:
        """Whether every expected task has reported."""
        return self.reported >= self.expected

    def render(self) -> str:
        """One human-readable progress line."""
        pct = 100.0 * self.reported / self.expected if self.expected else 100.0
        eta = (
            f", ETA {self.eta_seconds / 60.0:.1f} min"
            if self.eta_seconds is not None
            else ""
        )
        faults = (
            f", retried {self.n_retried}, timed out {self.n_timed_out}"
            if self.n_retried or self.n_timed_out
            else ""
        )
        return (
            f"{self.kind}: {self.reported}/{self.expected} ({pct:.0f}%) "
            f"[ok {self.succeeded}, failed {self.failed}, "
            f"cancelled {self.cancelled}{faults}]{eta}"
        )


class ProgressMonitor:
    """Tracks completion of an expected task set via status files.

    Parameters
    ----------
    status:
        The shared status directory.
    expected:
        Mapping of task kind -> expected count (e.g. ``{"pemodel": 600}``).
    clock:
        Time source (injectable for tests); defaults to
        :data:`repro.telemetry.clock.MONOTONIC`.
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`; every
        :meth:`report` refreshes per-kind progress gauges
        (``progress_succeeded`` / ``progress_failed`` /
        ``progress_cancelled`` / ``progress_pending`` /
        ``progress_throughput_per_minute``) so dashboards read the
        registry instead of re-parsing status directories.
    """

    def __init__(
        self,
        status: StatusDirectory,
        expected: dict[str, int],
        clock=MONOTONIC,
        metrics: MetricsRegistry | None = None,
    ):
        if not expected:
            raise ValueError("expected task counts must be non-empty")
        for kind, count in expected.items():
            if count < 1:
                raise ValueError(f"expected count for {kind!r} must be >= 1")
        self.status = status
        self.expected = dict(expected)
        self._clock = clock
        self._t0 = clock()
        self.metrics = metrics
        # Completions already on disk when monitoring began: a restarted
        # monitor must not count them as *its* throughput, for any kind.
        self._baseline = {
            kind: len(status.completed_indices(kind)) for kind in expected
        }

    def report(self, kind: str) -> ProgressReport:
        """Progress snapshot for one task kind (counts in *member* units).

        Every record names the members it covers, so the status scans
        already answer per member.
        """
        if kind not in self.expected:
            raise KeyError(f"unknown kind {kind!r}; expected {sorted(self.expected)}")
        statuses = list(self.status.completed_indices(kind).values())
        succeeded = statuses.count(TaskStatus.SUCCESS)
        cancelled = statuses.count(TaskStatus.CANCELLED)
        failed = sum(1 for s in statuses if s.is_retryable)  # a failure class
        attempts = self.status.attempt_counts(kind)
        n_retried = sum(sum(per.values()) - 1 for per in attempts.values())
        n_timed_out = sum(
            per.get(TaskStatus.TIMED_OUT, 0) for per in attempts.values()
        )

        elapsed = max(self._clock() - self._t0, 1e-9)
        # Exclude pre-existing completions from the measured rate; clamp
        # at zero so a cleaned-up status directory (fewer records than the
        # baseline) cannot produce a negative throughput.
        new_since_start = max(len(statuses) - self._baseline[kind], 0)
        rate = 60.0 * new_since_start / elapsed
        remaining = self.expected[kind] - len(statuses)
        if remaining < 0:
            # More reported than the expectation can hold: the expectation
            # is stale, so any ETA would be fiction.
            eta = None
        elif remaining == 0:
            eta = 0.0
        elif rate > 0:
            eta = 60.0 * remaining / rate
        else:
            eta = None  # no measurable progress yet: no ETA, never inf
        if self.metrics is not None:
            self.metrics.gauge("progress_succeeded", kind=kind).set(succeeded)
            self.metrics.gauge("progress_failed", kind=kind).set(failed)
            self.metrics.gauge("progress_cancelled", kind=kind).set(cancelled)
            self.metrics.gauge("progress_pending", kind=kind).set(
                max(remaining, 0)
            )
            self.metrics.gauge("progress_throughput_per_minute", kind=kind).set(
                rate
            )
        return ProgressReport(
            kind=kind,
            expected=self.expected[kind],
            succeeded=succeeded,
            failed=failed,
            cancelled=cancelled,
            throughput_per_minute=rate,
            eta_seconds=eta,
            n_retried=n_retried,
            n_timed_out=n_timed_out,
        )

    def reports(self) -> list[ProgressReport]:
        """Snapshots for every expected kind."""
        return [self.report(kind) for kind in self.expected]
