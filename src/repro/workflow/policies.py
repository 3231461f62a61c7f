"""Cancellation and retry policies for the parallel ESSE workflow.

Paper Sec 4.1: "If the convergence test succeeds, the remaining ensemble
members (queued for execution or running) are canceled, and depending on
the time constraints ... and an associated policy, either the ensemble
calculation concludes immediately or the remaining ensemble results already
calculated are diffed ... In theory one could also spare any ensemble
calculations close to finishing."

:class:`RetryPolicy` generalizes the paper's tolerance of member failure
(Sec 4 point 3: "failures ... are not catastrophic") from *ignore the
member* to *resubmit the member*: on Grid and EC2 substrates (Sec 5.3-5.4)
tasks die, stall, or never report, and rerunning a member is cheap and
exactly reproducible because its statistics depend only on (root seed,
perturbation index), never on which attempt produced the output.  See
``docs/FAILURE_MODEL.md`` for the full failure model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.rng import SeedSequenceStream


class CancellationPolicy(Enum):
    """What to do with in-flight members when convergence is declared."""

    IMMEDIATE = "immediate"  # cancel queued AND ignore still-running results
    DRAIN_RUNNING = "drain_running"  # cancel queued, keep results of running


@dataclass(frozen=True)
class RetryPolicy:
    """Resubmission of failed, corrupt, or straggling members.

    Parameters
    ----------
    max_attempts:
        Total attempts per member (first run included).  ``1`` disables
        retries, recovering the seed behaviour where every failure is
        terminal.
    backoff_base_s:
        Delay before the first resubmission.
    backoff_factor:
        Multiplier applied per additional attempt (exponential backoff).
    jitter:
        Fractional jitter: attempt delays are scaled by a factor drawn
        uniformly from ``[1, 1 + jitter]``.  The draw depends only on
        ``(seed, index, attempt)``, so a fixed seed reproduces the exact
        backoff schedule regardless of thread timing.
    timeout_seconds:
        Per-attempt wall-clock budget.  An attempt running longer is a
        *straggler*: it is cancelled (its result, if any, is discarded)
        and the member is resubmitted -- the paper's "cancellation of
        superfluous members" generalized to cancellation of *stuck* ones.
        None disables straggler handling.
    seed:
        Root seed of the jitter stream.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1
    timeout_seconds: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")

    def retries_left(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be followed."""
        return attempt < self.max_attempts

    def backoff_seconds(self, index: int, attempt: int) -> float:
        """Delay before resubmitting ``index`` after failed ``attempt``.

        Deterministic in ``(seed, index, attempt)``; independent of the
        order in which failures are observed.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if self.jitter == 0:
            return base
        u = SeedSequenceStream(self.seed).rng("backoff", index, attempt).random()
        return base * (1.0 + self.jitter * u)

    def schedule(self, index: int) -> list[float]:
        """The full backoff schedule for one member (for tests/docs)."""
        return [self.backoff_seconds(index, a) for a in range(1, self.max_attempts)]
