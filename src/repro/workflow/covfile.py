"""The differ -> SVD covariance handoff: an append-only column store.

Paper Sec 4.1: "To fully decouple the loops without introducing a race
condition on the covariance matrix file between its reading for the SVD and
its writing by diff, we employ three files, a safe one for SVD to use and a
live alternating pair for diff to write to, with the safe one being updated
by the appropriate member of the pair."

:class:`MemmapCovarianceStore` keeps that guarantee -- the SVD never
reads a torn matrix, the differ never blocks -- with three files of a
different shape: two append-only data files (raw normalized anomaly
columns, column-major, and their member ids) play the live pair, growing
beyond what any reader maps, and a tiny versioned header is the safe
file, the *only* thing rewritten per publish.  Appending member ``N``
costs ``O(n)`` bytes; readers memmap the published prefix zero-copy.

The header is a versioned pointer (:mod:`repro.util.fsio`) whose payload
is the two data files, so commit ordering, restart recovery and the
bounded "unreadable reads as not-yet" contract (past the bound:
:class:`CovarianceReadError`) are the pointer's; what is written here
is the column layout and the zero-copy mapping
(``docs/COVFILE_PROTOCOL.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.covariance import AnomalyView
from repro.util.fsio import PointerReader, PointerWriter


class CovarianceReadError(RuntimeError):
    """The safe snapshot stayed unreadable past the retry bound."""


@dataclass(frozen=True)
class ColumnSnapshot:
    """A zero-copy snapshot of the published prefix of the column store.

    Attributes
    ----------
    columns:
        Read-only memmap view ``(n, count)`` of *raw* (unscaled)
        normalized anomaly columns -- no bytes are copied until a
        consumer actually touches pages.
    member_ids:
        Perturbation index of each column.
    version:
        Monotone publish counter.
    """

    columns: np.ndarray
    member_ids: np.ndarray
    version: int

    @property
    def count(self) -> int:
        """Number of member columns in the snapshot."""
        return int(self.member_ids.size)

    @property
    def scale(self) -> float:
        """The ``1/sqrt(count - 1)`` covariance normalization factor."""
        if self.count < 2:
            raise RuntimeError(f"need >= 2 members for a scale, have {self.count}")
        return 1.0 / np.sqrt(self.count - 1)


class MemmapCovarianceStore(PointerReader):
    """Append-only memmap-backed covariance column store.

    On-disk layout (``docs/COVFILE_PROTOCOL.md``):

    - ``cov_columns.bin`` -- raw float64 anomaly columns, column-major
      (column ``j`` occupies bytes ``[j n 8, (j+1) n 8)``), append-only;
    - ``cov_members.bin`` -- int64 member ids, append-only, same order;
    - ``cov_header.json`` -- the versioned pointer
      ``{"version", "count", "state_dim"}``, republished by :meth:`publish`.

    Write side: :meth:`append` writes new columns at the committed end
    of the data files (a failed append leaves nothing a reader ever maps
    and is retried in place); :meth:`publish` makes the data durable,
    then publishes the header that vouches for it.  A writer opened on a
    published directory resumes version, count and state dimension from
    the header and cuts the data files back to that committed end.

    Read side: the store is a :class:`~repro.util.fsio.PointerReader`
    over its header; :meth:`read_safe` memmaps exactly the header's
    ``count`` columns, which were durable before the header landed, so
    the mapped prefix is immutable and consistent.

    Parameters
    ----------
    workdir:
        Directory receiving the three files.
    max_unreadable_reads:
        Consecutive unreadable reads :meth:`read_safe` tolerates before
        raising :class:`CovarianceReadError`.
    """

    def __init__(self, workdir: str | Path, max_unreadable_reads: int = 64):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.columns_path = self.workdir / "cov_columns.bin"
        self.members_path = self.workdir / "cov_members.bin"
        self.header_path = self.workdir / "cov_header.json"
        super().__init__(self.header_path, CovarianceReadError, max_unreadable_reads)
        self._header = PointerWriter(self.header_path)
        self._state_dim: int | None = self._header.record.get("state_dim")
        # columns written end to end (>= the header's published count)
        self._appended: int = self._header.record.get("count", 0)
        self._columns_file = None
        self._members_file = None

    # -- differ side ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Columns appended so far (not necessarily published)."""
        return self._appended

    @property
    def version(self) -> int:
        """Publish counter of the current header."""
        return self._header.version

    def _truncate_to_committed(self) -> None:
        """Open the data files if need be and cut them at the committed end.

        Opened read-write *without* append mode, so the seek in
        :meth:`append` is honoured and a retry overwrites in place.
        """
        if self._columns_file is None:
            self.columns_path.touch()
            self.members_path.touch()
            self._columns_file = open(self.columns_path, "r+b")
            self._members_file = open(self.members_path, "r+b")
        self._columns_file.truncate(self._appended * (self._state_dim or 0) * 8)
        self._members_file.truncate(self._appended * 8)

    def append(self, columns: np.ndarray, member_ids) -> int:
        """Append new raw anomaly columns; returns bytes written.

        The write lands at the committed end of the files; if it fails
        part-way the files are cut back to that end, so the retry starts
        from a clean tail.  Nothing becomes visible to readers until
        :meth:`publish`.
        """
        columns = np.asarray(columns, dtype=np.float64)  # shape: (state_dim, count) # dtype: float64
        if columns.ndim == 1:
            columns = columns[:, None]
        ids = np.asarray(member_ids, dtype=np.int64).ravel()  # shape: (count) # dtype: int64
        if columns.ndim != 2 or columns.shape[1] != ids.size:
            raise ValueError(
                f"columns {columns.shape} inconsistent with {ids.size} member ids"
            )
        if self._state_dim is None:
            self._state_dim = int(columns.shape[0])
        elif columns.shape[0] != self._state_dim:
            raise ValueError(
                f"state dim changed: {columns.shape[0]} != {self._state_dim}"
            )
        if ids.size == 0:
            return 0
        if self._columns_file is None:
            self._truncate_to_committed()
        col_bytes = columns.tobytes(order="F")
        try:
            self._columns_file.seek(self._appended * self._state_dim * 8)
            self._columns_file.write(col_bytes)
            self._members_file.seek(self._appended * 8)
            self._members_file.write(ids.tobytes())
        except BaseException:
            self._truncate_to_committed()
            raise
        # Commit point: both writes succeeded end to end.
        self._appended += ids.size
        return len(col_bytes) + ids.size * 8

    def sync_from(self, view: AnomalyView) -> int:
        """Append whatever the accumulator view holds beyond our tail.

        The accumulator is append-only, so the store's columns are
        always a prefix of any newer view; this ships exactly the new
        columns (zero-copy slice of the view) and returns bytes written.
        """
        if view.count < self._appended:
            raise ValueError(
                f"view has {view.count} columns but {self._appended} already stored"
            )
        new = view.columns[:, self._appended : view.count]  # shape: (state_dim, ?)
        ids = view.member_ids[self._appended : view.count]  # shape: (?) # dtype: int64
        return self.append(new, ids)

    def publish(self) -> bool:
        """Make appended data durable, then expose it via the header.

        Returns False when nothing has been appended yet.  The version
        commits only after the header replace succeeds.
        """
        if self._appended == 0:
            return False
        if self._columns_file is not None:
            self._columns_file.flush()
            self._members_file.flush()
        self._header.commit(
            (self.columns_path, self.members_path),
            count=self._appended,
            state_dim=self._state_dim,
        )
        return True

    # -- SVD side ----------------------------------------------------------------

    def read_safe(self) -> ColumnSnapshot | None:
        """Zero-copy snapshot of the published prefix (None before first publish).

        A torn/lagged/corrupt header, or a data file shorter than the
        header claims (an NFS reader seeing the header before the data),
        reads as "no snapshot yet", boundedly (see
        :class:`~repro.util.fsio.PointerReader`).
        """
        return self.read(self._map_snapshot)

    def _map_snapshot(self, header: dict) -> ColumnSnapshot:
        """Map the columns one header record vouches for; raises if it cannot."""
        count = int(header["count"])
        n = int(header["state_dim"])
        if count < 1 or n < 1:
            raise ValueError(f"implausible header {header!r}")
        if self.columns_path.stat().st_size < count * n * 8:
            raise ValueError("columns file shorter than header claims")
        if self.members_path.stat().st_size < count * 8:
            raise ValueError("members file shorter than header claims")
        member_ids = np.fromfile(self.members_path, dtype=np.int64, count=count)
        # Map the columns last: nothing after this can raise, so the
        # mapping cannot leak on the unreadable-generation path -- the
        # snapshot returned below owns it (REP009).
        columns = np.memmap(
            self.columns_path, dtype=np.float64, mode="r", shape=(n, count), order="F"
        )
        return ColumnSnapshot(
            columns=columns, member_ids=member_ids, version=header["version"]
        )

    def close(self) -> None:
        """Close the writer's file handles (reader needs none)."""
        for handle in (self._columns_file, self._members_file):
            if handle is not None:
                handle.close()
        self._columns_file = None
        self._members_file = None

    def cleanup(self) -> None:
        """Remove all protocol files (end-of-run cleanup, Sec 4.2)."""
        self.close()
        for path in (self.columns_path, self.members_path, self.header_path):
            path.unlink(missing_ok=True)
