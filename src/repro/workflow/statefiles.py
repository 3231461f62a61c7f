"""Per-perturbation-index status files.

Paper Sec 4.2: "Dependencies are tracked using separate (per perturbation
index) files containing the error codes of the singleton scripts (which are
set on purpose to signify success or failure).  These files reside in
directories accessible directly or indirectly from all execution hosts so
that state information can be readily shared."

The same mechanism enables restart: a stopped ESSE run is resumed by
scanning which indices already completed and submitting only the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

from repro.util.fsio import durable_write


class TaskStatus(IntEnum):
    """Singleton exit codes (0 success, >0 failure classes)."""

    SUCCESS = 0
    MODEL_FAILURE = 1  # blow-up / numerical failure (tolerated)
    CANCELLED = 2  # superfluous member cancelled on convergence
    IO_FAILURE = 3  # could not read inputs / write outputs
    TIMED_OUT = 4  # straggler cancelled past its per-attempt deadline

    @property
    def is_retryable(self) -> bool:
        """Whether a retry policy may resubmit after this outcome."""
        return self in (
            TaskStatus.MODEL_FAILURE,
            TaskStatus.IO_FAILURE,
            TaskStatus.TIMED_OUT,
        )


@dataclass(frozen=True)
class StatusRecord:
    """One task's recorded outcome."""

    kind: str
    index: int
    status: TaskStatus
    attempt: int = 1


class StatusDirectory:
    """A shared directory of ``<kind>.<index>.status`` files.

    Parameters
    ----------
    root:
        Directory path; created on first use.

    Notes
    -----
    Writes go through :func:`repro.util.fsio.durable_write`, so concurrent
    readers on "all execution hosts" never observe a torn file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind: str, index: int, attempt: int | None = None) -> Path:
        if not kind or "." in kind or "/" in kind:
            raise ValueError(f"invalid task kind {kind!r}")
        if index < 0:
            raise ValueError(f"invalid task index {index}")
        if attempt is None:
            return self.root / f"{kind}.{index}.status"
        if attempt < 1:
            raise ValueError(f"invalid attempt {attempt} (1-based)")
        return self.root / f"{kind}.{index}.a{attempt}.status"

    def write(
        self,
        kind: str,
        index: int,
        status: TaskStatus | int,
        attempt: int | None = None,
    ) -> None:
        """Record a singleton's exit code (atomic).

        The plain ``<kind>.<index>.status`` file always carries the task's
        *latest* outcome -- what restart and the differ consult.  When
        ``attempt`` is given, an additional attempt-numbered record
        ``<kind>.<index>.a<attempt>.status`` preserves the full retry
        history (consumed by :meth:`attempt_history` and the progress
        monitor's retry counters).
        """
        code = b"%d\n" % TaskStatus(status)
        durable_write(self._path(kind, index), lambda fh: fh.write(code))
        if attempt is not None:
            durable_write(
                self._path(kind, index, attempt), lambda fh: fh.write(code)
            )

    def read(self, kind: str, index: int) -> TaskStatus | None:
        """The recorded status, or None if the task has not reported."""
        path = self._path(kind, index)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        return TaskStatus(int(text.strip()))

    def is_done(self, kind: str, index: int) -> bool:
        """Whether the task reported (any exit code)."""
        return self.read(kind, index) is not None

    def succeeded(self, kind: str, index: int) -> bool:
        """Whether the task reported success."""
        return self.read(kind, index) == TaskStatus.SUCCESS

    def completed_indices(self, kind: str) -> dict[int, TaskStatus]:
        """All reported indices of a kind -> status (one directory scan)."""
        out: dict[int, TaskStatus] = {}
        prefix = f"{kind}."
        for path in self.root.glob(f"{kind}.*.status"):
            stem = path.name[len(prefix) : -len(".status")]
            try:
                index = int(stem)
            except ValueError:
                continue  # foreign file in a shared directory
            try:
                out[index] = TaskStatus(int(path.read_text().strip()))
            except (ValueError, OSError):
                continue  # torn/foreign content: treat as not reported
        return out

    def attempt_history(self, kind: str, index: int) -> dict[int, TaskStatus]:
        """Attempt number -> recorded status for one task (may be empty).

        Only populated by attempt-aware writers (the retrying workflow);
        plain single-attempt writes leave it empty.
        """
        out: dict[int, TaskStatus] = {}
        for path in self.root.glob(f"{kind}.{index}.a*.status"):
            stem = path.name[: -len(".status")].rsplit(".a", 1)[-1]
            try:
                attempt = int(stem)
                out[attempt] = TaskStatus(int(path.read_text().strip()))
            except (ValueError, OSError):
                continue  # torn/foreign content: treat as not reported
        return out

    def attempt_counts(self, kind: str) -> dict[int, dict[TaskStatus, int]]:
        """Index -> {status: attempt-record count} in one directory scan.

        The monitor derives its retry/straggler counters from this:
        resubmissions are attempt records beyond the first, and timed-out
        attempts carry :attr:`TaskStatus.TIMED_OUT`.
        """
        prefix = f"{kind}."
        out: dict[int, dict[TaskStatus, int]] = {}
        for path in self.root.glob(f"{kind}.*.a*.status"):
            stem = path.name[len(prefix) : -len(".status")]
            index_part, _, attempt_part = stem.rpartition(".a")
            try:
                index = int(index_part)
                int(attempt_part)
                status = TaskStatus(int(path.read_text().strip()))
            except (ValueError, OSError):
                continue  # foreign file in a shared directory
            per_index = out.setdefault(index, {})
            per_index[status] = per_index.get(status, 0) + 1
        return out

    def successful_indices(self, kind: str) -> list[int]:
        """Sorted indices that reported success (restart bookkeeping)."""
        return sorted(
            idx
            for idx, status in self.completed_indices(kind).items()
            if status == TaskStatus.SUCCESS
        )

    def pending_indices(self, kind: str, universe: range) -> list[int]:
        """Indices in ``universe`` that have not reported yet.

        This is the restart path of Sec 4.2: "if the ESSE execution gets
        stopped, it can only be restarted without rerunning all jobs" by
        consulting these files.
        """
        done = self.completed_indices(kind)
        return [i for i in universe if i not in done]

    def clear(self, kind: str | None = None) -> int:
        """Remove status files (all kinds by default); returns count."""
        pattern = f"{kind}.*.status" if kind else "*.status"
        removed = 0
        for path in self.root.glob(pattern):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
