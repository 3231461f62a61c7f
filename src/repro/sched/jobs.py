"""Job specifications and runtime records for the campaign simulator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class JobState(Enum):
    """Lifecycle of a simulated singleton job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


@dataclass(frozen=True)
class JobSpec:
    """Static description of one singleton.

    Parameters
    ----------
    kind:
        Task kind: ``"pert"``, ``"pemodel"``, ``"acoustic"``, ...
    index:
        Perturbation index (or acoustic task id).
    cpu_seconds:
        Pure-compute time on the reference host (local Opteron 250).
    depends_on:
        Index of a same-campaign job that must succeed first (pemodel
        depends on its pert); None if independent.

    Every job occupies one core: the paper's ESSE and acoustic tasks are
    all singletons.
    """

    kind: str
    index: int
    cpu_seconds: float
    depends_on: tuple[str, int] | None = None

    def __post_init__(self):
        if self.cpu_seconds <= 0:
            raise ValueError("cpu_seconds must be positive")
        if self.index < 0:
            raise ValueError("index must be >= 0")


@dataclass
class Job:
    """Runtime record of one job inside a simulation."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    node_name: str | None = None
    cpu_busy_seconds: float = 0.0  # time actually computing (not I/O)

    @property
    def wait_seconds(self) -> float | None:
        """Queue wait (None until started)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def runtime_seconds(self) -> float | None:
        """Wall time on the node (None until finished)."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def cpu_utilization(self) -> float | None:
        """Compute / wall fraction -- the paper's ~20% vs ~100% metric."""
        runtime = self.runtime_seconds
        if runtime is None or runtime == 0:
            return None
        return self.cpu_busy_seconds / runtime
