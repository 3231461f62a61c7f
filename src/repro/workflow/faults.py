"""Deterministic fault injection for the many-task ESSE workflow.

The paper's MTC pipeline exists because ensemble members die, stall and
straggle on real substrates: jobs lose the race for NFS bandwidth
(Sec 5.2.1), Grid sites give "no easy way ... to monitor the progress of
one's jobs" so stuck members look identical to slow ones (Sec 5.3.1), and
EC2 instances come and go under elastic provisioning (Sec 5.4).  ESSE
tolerates all of this by design -- "individual ensemble members are not
significant (and their results can be ignored if unavailable)" (Sec 4
point 3) -- but *tolerating* faults is only testable if faults happen on
demand.

:class:`FaultInjector` makes them happen deterministically.  Every fault
draw depends only on ``(seed, task kind, index, attempt)``, never on
thread timing or completion order, so a fixed seed reproduces the exact
fault sequence across runs, worker counts, and thread/process backends --
the same member-indexed stream discipline the ensemble itself uses
(:mod:`repro.util.rng`).

Fault classes (see ``docs/FAILURE_MODEL.md`` for the paper mapping):

- ``CRASH``: the member dies before writing output,
- ``CORRUPT``: the member writes a truncated output file but reports
  success (a torn NFS write observed by a remote reader),
- ``STALL``: the member straggles for an extra delay before finishing,
- ``SUBMIT_FAILURE``: the submission itself transiently fails and must be
  reattempted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from repro.util.rng import SeedSequenceStream


class FaultKind(Enum):
    """The injectable fault classes."""

    CRASH = "crash"  # dies before writing output (Sec 5.3/5.4 lost jobs)
    CORRUPT = "corrupt"  # truncated output, status says success (Sec 5.2.1)
    STALL = "stall"  # straggler delay (Sec 5.3.1 unmonitorable Grid jobs)
    SUBMIT_FAILURE = "submit"  # transient submission failure (Sec 5.3.1)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, keyed so sequences can be compared across runs."""

    kind: FaultKind
    task_kind: str
    index: int
    attempt: int


class FaultInjector:
    """Seedable, deterministic fault source for task-pool executions.

    Parameters
    ----------
    crash_rate, corrupt_rate, stall_rate:
        Per-attempt probabilities of each execution fault.  At most one
        execution fault fires per attempt (a single uniform draw is cut
        into disjoint intervals), so rates must sum to <= 1.
    submit_failure_rate:
        Probability that a given submission attempt fails before the task
        ever runs.  Drawn independently of the execution fault.
    stall_seconds:
        Extra delay a stalled member sleeps before completing.  The sleep
        waits on a per-attempt cancel event, so straggler cancellation
        frees the pool slot immediately instead of blocking a worker.
    seed:
        Root seed of the fault stream.

    Notes
    -----
    Draws are pure functions of ``(seed, task kind, index, attempt)``:
    re-running a campaign with the same seed injects byte-identical
    faults, which is what makes fault-tolerance tests reproducible.  The
    injector also records every fault it actually fired (thread-safe);
    :meth:`fault_sequence` returns them in canonical order for
    comparisons.
    """

    def __init__(
        self,
        crash_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        stall_rate: float = 0.0,
        submit_failure_rate: float = 0.0,
        stall_seconds: float = 0.5,
        seed: int = 0,
    ):
        for name, rate in (
            ("crash_rate", crash_rate),
            ("corrupt_rate", corrupt_rate),
            ("stall_rate", stall_rate),
            ("submit_failure_rate", submit_failure_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if crash_rate + corrupt_rate + stall_rate > 1.0:
            raise ValueError("execution fault rates must sum to <= 1")
        if stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        self.crash_rate = crash_rate
        self.corrupt_rate = corrupt_rate
        self.stall_rate = stall_rate
        self.submit_failure_rate = submit_failure_rate
        self.stall_seconds = stall_seconds
        self.seed = int(seed)
        self._stream = SeedSequenceStream(self.seed)
        self._history: list[FaultEvent] = []
        self._lock = threading.Lock()

    def __getstate__(self):
        """Pickle support for process-pool workers (locks don't travel)."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        """Rebuild the lock; worker-side history starts empty by design."""
        self.__dict__.update(state)
        self._history = []
        self._lock = threading.Lock()

    # -- deterministic draws ------------------------------------------------

    def draw(self, index: int, attempt: int, kind: str = "pemodel") -> FaultKind | None:
        """The execution fault for one attempt, or None.

        Pure: depends only on ``(seed, kind, index, attempt)``.  Does not
        record history -- recording happens when the fault actually fires
        (:meth:`fire`), so the history reflects executed attempts only.
        """
        u = self._stream.rng("fault", kind, index, attempt).random()
        if u < self.crash_rate:
            return FaultKind.CRASH
        if u < self.crash_rate + self.corrupt_rate:
            return FaultKind.CORRUPT
        if u < self.crash_rate + self.corrupt_rate + self.stall_rate:
            return FaultKind.STALL
        return None

    def submit_fails(self, index: int, attempt: int, kind: str = "pemodel") -> bool:
        """Whether this submission attempt transiently fails (pure draw)."""
        if self.submit_failure_rate == 0.0:
            return False
        u = self._stream.rng("submit", kind, index, attempt).random()
        return u < self.submit_failure_rate

    # -- firing (history + stall plumbing) ----------------------------------

    def fire(self, fault: FaultKind, index: int, attempt: int, kind: str = "pemodel") -> FaultEvent:
        """Record that a drawn fault was actually injected."""
        event = FaultEvent(kind=fault, task_kind=kind, index=index, attempt=attempt)
        with self._lock:
            self._history.append(event)
        return event

    def stall(self, cancel: threading.Event | None = None) -> bool:
        """Serve one stall delay; returns True if cancelled mid-stall.

        The sleep waits on ``cancel`` so a straggler-cancelled attempt
        releases its worker immediately rather than after the full delay.
        """
        if cancel is None:
            cancel = threading.Event()
        return cancel.wait(self.stall_seconds)

    @property
    def history(self) -> tuple[FaultEvent, ...]:
        """Every fault fired so far, in firing order (thread-dependent)."""
        with self._lock:
            return tuple(self._history)

    def fault_sequence(self) -> tuple[FaultEvent, ...]:
        """Fired faults in canonical ``(kind, index, attempt)`` order.

        Firing order varies with thread scheduling; this canonical order
        is what two same-seed runs must agree on.
        """
        with self._lock:
            return tuple(
                sorted(
                    self._history,
                    key=lambda e: (e.task_kind, e.index, e.attempt, e.kind.value),
                )
            )

    @staticmethod
    def corrupt_bytes(payload: bytes) -> bytes:
        """Truncate an output payload the way a torn shared-FS write does."""
        return payload[: max(len(payload) // 2, 1)]
