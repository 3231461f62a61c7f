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

from enum import IntEnum
from pathlib import Path
from typing import Sequence

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


class StatusDirectory:
    """A shared directory of ``<kind>.<index>.status`` files.

    Two record shapes share it.  A *plain* record
    ``<kind>.<index>.status`` is one task's latest outcome, written by
    single-attempt writers (the serial shepherd, cancellations).  An
    *attempt* record covers one attempt of one or more tasks -- a batch
    of the member pool or of the engine:
    ``<kind>.<index>.a<attempt>.status`` for a batch of one, or
    ``<kind>.<first>-<last>.a<attempt>.status`` naming its members after
    the exit code.  The scans answer per task either way.

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

    def _path(
        self, kind: str, index: int, attempt: int | None = None, last: int | None = None
    ) -> Path:
        if not kind or "." in kind or "/" in kind:
            raise ValueError(f"invalid task kind {kind!r}")
        if index < 0:
            raise ValueError(f"invalid task index {index}")
        if attempt is None:
            return self.root / f"{kind}.{index}.status"
        if attempt < 1:
            raise ValueError(f"invalid attempt {attempt} (1-based)")
        span = index if last is None else f"{index}-{last}"
        return self.root / f"{kind}.{span}.a{attempt}.status"

    def write(
        self,
        kind: str,
        index: int,
        status: TaskStatus | int,
        attempt: int | None = None,
    ) -> None:
        """Record a singleton's exit code (atomic).

        The plain ``<kind>.<index>.status`` file always carries the task's
        *latest* outcome -- what restart consults.  When ``attempt`` is
        given, the attempt record ``<kind>.<index>.a<attempt>.status``
        also preserves it in the retry history.
        """
        code = b"%d\n" % TaskStatus(status)
        durable_write(self._path(kind, index), lambda fh: fh.write(code))
        if attempt is not None:
            self.write_batch(kind, (index,), status, attempt)

    def write_batch(
        self,
        kind: str,
        members: Sequence[int],
        status: TaskStatus | int,
        attempt: int,
    ) -> None:
        """Record one attempt of ``members`` (ascending) in one file (atomic).

        No plain record is written: the attempt records alone carry these
        members' outcomes until a plain record (a cancellation) supersedes
        them.
        """
        code = b"%d" % TaskStatus(status)
        if len(members) == 1:
            path = self._path(kind, members[0], attempt)
        else:
            path = self._path(kind, members[0], attempt, last=members[-1])
            code += b" " + " ".join(map(str, members)).encode()
        durable_write(path, lambda fh: fh.write(code + b"\n"))

    def read(self, kind: str, index: int) -> TaskStatus | None:
        """The task's plain record, or None if it has not written one."""
        path = self._path(kind, index)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        return TaskStatus(int(text.strip()))

    def succeeded(self, kind: str, index: int) -> bool:
        """Whether the task's plain record says success."""
        return self.read(kind, index) == TaskStatus.SUCCESS

    def completed_indices(self, kind: str) -> dict[int, TaskStatus]:
        """All reported indices of a kind -> latest status (one directory scan).

        A plain record is the latest outcome; a task with attempt records
        only reports its latest attempt's.  An attempt recorded twice --
        its output written as a success, then found torn or timed out --
        keeps the failure.
        """
        plain: dict[int, TaskStatus] = {}
        histories: dict[int, dict[int, TaskStatus]] = {}
        prefix = f"{kind}."
        for path in self.root.glob(f"{kind}.*.status"):
            stem = path.name[len(prefix) : -len(".status")]
            span, _, attempt_part = stem.rpartition(".a")
            try:
                code, *members = path.read_text().split()
                status = TaskStatus(int(code))
                if not span:
                    plain[int(stem)] = status
                    continue
                attempt = int(attempt_part)
                members = [int(m) for m in members] or [int(span)]
            except (ValueError, OSError):
                continue  # torn or foreign file in a shared directory
            for member in members:
                history = histories.setdefault(member, {})
                if history.get(attempt, TaskStatus.SUCCESS) == TaskStatus.SUCCESS:
                    history[attempt] = status
        out = {index: history[max(history)] for index, history in histories.items()}
        out.update(plain)
        return out

    def clear(self, kind: str | None = None) -> int:
        """Remove status files (all kinds by default); returns count."""
        pattern = f"{kind}.*.status" if kind else "*.status"
        removed = 0
        for path in self.root.glob(pattern):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
