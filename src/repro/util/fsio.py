"""The durable-publish primitive: staged write + versioned pointer.

Every artifact the repo publishes (covariance header, product HEAD,
member forecasts, task status files) follows one protocol, written once
here: **stage** the bytes beside the visible path (:func:`staging_path`),
**fsync** them -- an ``os.replace`` of an unfsynced file is atomic with
respect to *naming* but not *contents*, so after a crash the published
name can point at a truncated or empty artifact -- then **replace** and
fsync the directory.  :func:`durable_write` is that sequence for one file.

A store whose payload is not the pointer itself (column data, a product
snapshot) publishes through a **versioned pointer**: a small JSON record
written with :func:`durable_write` *after* the payload it vouches for is
durable.  :class:`PointerWriter` owns the commit ordering and restart
recovery; :class:`PointerReader` owns the bounded "unreadable reads as
not-yet" contract.  ``tests/util/test_fsio.py`` holds the rest of the tree
to it: a rename outside :func:`durable_replace` fails the site allowlist.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import BinaryIO

__all__ = [
    "fsync_path",
    "fsync_dir",
    "durable_replace",
    "staging_path",
    "durable_write",
    "PointerWriter",
    "PointerReader",
]


def fsync_path(path: str | os.PathLike[str]) -> None:
    """fsync the file at *path* so its contents survive a crash.

    Opens read-only, so it works on artifacts written and closed by other
    code (``Path.write_text``, ``np.savez``, ...).
    """
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | os.PathLike[str]) -> None:
    """fsync a directory so a rename into it is durable.

    Directory fsync is what persists the *name* -> inode mapping after an
    ``os.replace``.  Best-effort: some filesystems (and platforms) refuse
    to fsync a directory fd; that degrades durability, not correctness.
    """
    with contextlib.suppress(OSError):
        fsync_path(path)


def durable_replace(src: str | os.PathLike[str], dst: str | os.PathLike[str]) -> None:
    """Publish *src* at *dst*: fsync src, replace, fsync the parent dir.

    A crash at any point leaves *dst* either absent/previous or fully
    equal to the staged bytes -- never a torn mix.
    """
    fsync_path(src)
    os.replace(src, dst)
    fsync_dir(Path(dst).resolve().parent)


def staging_path(path: str | os.PathLike[str]) -> Path:
    """Where the bytes bound for *path* are staged: ``<name>.tmp`` beside it.

    Beside, so the replace never crosses a filesystem; suffixed last, so
    no reader's glob for the published name (``*.status``, ``v*``) ever
    matches a staged file.
    """
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def durable_write(
    path: str | os.PathLike[str], fill: Callable[[BinaryIO], object]
) -> None:
    """Publish whatever ``fill(fh)`` writes at *path*, atomically and durably.

    ``fill`` receives the staged file opened for binary writing
    (``np.savez`` takes the handle directly; text goes in encoded).  A
    failure anywhere before the replace leaves *path* untouched; a stale
    staged file from a crashed attempt is simply overwritten by the next.
    """
    tmp = staging_path(path)
    with open(tmp, "wb") as fh:
        fill(fh)
    durable_replace(tmp, path)


def _load_record(raw: str) -> dict:
    """Parse one pointer record; anything but a versioned object raises."""
    record = json.loads(raw)
    record["version"] = int(record["version"])
    if record["version"] < 1:
        raise ValueError(f"implausible pointer record {record!r}")
    return record


class PointerWriter:
    """Writer side of a versioned pointer file (single writer).

    Opening recovers the last published record, so a restarted writer
    continues the version sequence instead of re-issuing versions its
    readers have already seen; an absent or unparsable file starts at
    version 0.

    Every committed pointer file gets a strictly later ``mtime_ns`` than
    the one before it (seeded from the file found on opening), so two
    pointers that share an inode number, a size and a clock tick still
    differ in an ``os.stat`` signature -- what a reader may use to skip
    re-reading an unchanged pointer.

    Attributes
    ----------
    version:
        Version of the last successful :meth:`commit` (0 before the first).
    record:
        The last published record (empty before the first), from which a
        client recovers whatever else it needs (column count, ...).
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        try:
            self.record = _load_record(self.path.read_text())
        except (OSError, ValueError, KeyError, TypeError):
            self.record = {}
        self.version = self.record.get("version", 0)
        self._mtime_ns = 0
        with contextlib.suppress(OSError):
            self._mtime_ns = os.stat(self.path).st_mtime_ns

    def commit(
        self, payload_paths: Iterable[str | os.PathLike[str]] = (), **record
    ) -> int:
        """Publish ``{"version": v + 1, **record}``; returns the new version.

        Commit ordering: every path in ``payload_paths`` is fsynced
        *before* the pointer that vouches for it is published, and the
        in-memory ``version`` / ``record`` advance only *after* the
        replace succeeded -- a failed commit (disk full, crash) leaves
        readers on the previous complete version and the retry reuses
        the same version number.
        """
        for payload in payload_paths:
            fsync_path(payload)
        published = {"version": self.version + 1, **record}

        def fill(fh):
            fh.write(json.dumps(published).encode())
            fh.flush()  # no write may follow the stamp
            mtime = os.fstat(fh.fileno()).st_mtime_ns
            if mtime <= self._mtime_ns:  # the same clock tick as the last one
                mtime = self._mtime_ns + 1
                os.utime(fh.fileno(), ns=(mtime, mtime))
            self._mtime_ns = mtime

        durable_write(self.path, fill)
        self.record = published
        self.version = published["version"]
        return self.version


class PointerReader:
    """Reader side of a versioned pointer: never blocks, boundedly patient.

    A present-but-unreadable state -- torn or lagged pointer file, a
    payload shorter than the record claims, a checksum mismatch -- reads
    as "still publishing" (``None``), so a reader racing the writer or a
    slow shared filesystem retries on its next poll.  After
    ``max_unreadable_reads`` *consecutive* failures ``error`` is raised
    (a permanently corrupt store must surface, not spin silently); one
    good read resets the count.  Each concurrent reader owns an instance.

    Parameters
    ----------
    path:
        The pointer file a :class:`PointerWriter` publishes.
    error:
        The client's exception class raised past the bound.
    max_unreadable_reads:
        The consecutive-failure bound (>= 1).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        error: type[Exception],
        max_unreadable_reads: int = 64,
    ):
        if max_unreadable_reads < 1:
            raise ValueError("max_unreadable_reads must be >= 1")
        self.path = Path(path)
        self.error = error
        self.max_unreadable_reads = max_unreadable_reads
        self.consecutive_unreadable = 0
        self.last_read_error: Exception | None = None

    def read(self, load: Callable[[dict], object] = lambda record: record):
        """``load(record)`` of the current record; None before the first publish.

        ``load`` is the client's half of the read: it validates the
        record, opens and checks the payload, and returns the snapshot
        (the default returns the record itself).  Whatever it raises
        counts as one unreadable read.
        """
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        try:
            value = load(_load_record(raw))
        except Exception as exc:
            self.consecutive_unreadable += 1
            self.last_read_error = exc
            if self.consecutive_unreadable >= self.max_unreadable_reads:
                raise self.error(
                    f"{self.path} unreadable {self.consecutive_unreadable} "
                    f"consecutive times (last error: {exc!r})"
                ) from exc
            return None
        self.consecutive_unreadable = 0
        self.last_read_error = None
        return value
