"""Incremental accumulation of the ensemble anomaly (difference) matrix.

Paper Sec 4/4.1: the "diff loop" continuously appends, to a large matrix,
the normalized difference between each finished ensemble member and the
central forecast -- out of order, as members complete on heterogeneous
hosts, with bookkeeping of which perturbation index each column came from.
:class:`AnomalyAccumulator` is that component: columns arrive keyed by
member index, order does not matter, duplicates are rejected, and the
current matrix (scaled by ``1/sqrt(N-1)``) can be snapshotted at any time
for the concurrently running SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import FieldLayout


@dataclass(frozen=True)
class AnomalyView:
    """A zero-copy, version-stamped view of the accumulated columns.

    The columns are the *raw* normalized anomalies ``x_j - x_central``
    (no ``1/sqrt(N-1)`` factor): the accumulator is append-only, so the
    raw prefix of any older view is a prefix of every newer view, which
    is what lets the differ ship only the new columns to disk and the
    SVD worker warm-start from its previous factorization.  Apply
    :attr:`scale` to singular values (or the matrix) to recover the
    covariance normalization.

    Attributes
    ----------
    columns:
        Read-only, F-contiguous ``(n, count)`` view into the
        accumulator's storage (the transpose of its member rows).  Valid
        forever: written columns are never mutated, and a storage
        reallocation (capacity growth) leaves this view on the old
        buffer.
    member_ids:
        Perturbation index of each column, arrival order.
    version:
        Monotone counter, bumped on every accumulated member.
    """

    columns: np.ndarray
    member_ids: tuple[int, ...]
    version: int

    @property
    def count(self) -> int:
        """Number of member columns in the view."""
        return int(self.columns.shape[1])

    @property
    def scale(self) -> float:
        """The ``1/sqrt(count - 1)`` covariance factor for this view."""
        if self.count < 2:
            raise RuntimeError(f"need >= 2 members for a scale, have {self.count}")
        return 1.0 / np.sqrt(self.count - 1)


class AnomalyAccumulator:
    """Collects normalized member-minus-central anomaly columns.

    Parameters
    ----------
    layout:
        State layout; anomalies are normalized with its field scales.
    central:
        Central (unperturbed) forecast state vector, shape ``(n,)``.
    capacity:
        Members the storage holds before it grows.  Each member is one
        contiguous row of a ``(capacity, n)`` array, so a member writes
        (and the allocator pages in) only its own row; past ``capacity``
        the array doubles with one copy.
        :class:`~repro.core.driver.ESSEDriver` passes Nmax, so its
        accumulator never grows.
    """

    def __init__(
        self,
        layout: FieldLayout,
        central: np.ndarray,
        capacity: int = 64,
    ):
        central = np.asarray(central, dtype=np.float64)
        if central.shape != (layout.size,):
            raise ValueError(
                f"central forecast shape {central.shape} != ({layout.size},)"
            )
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.layout = layout
        self.central = central.copy()
        self._rows = np.empty((capacity, layout.size))
        self._member_ids: list[int] = []
        self._index_of: dict[int, int] = {}
        self._version = 0

    # -- accumulation -------------------------------------------------------

    def add_member(self, member_index: int, forecast: np.ndarray) -> None:
        """Add one finished member's forecast (any completion order).

        Raises
        ------
        ValueError
            On duplicate member index or wrong shape -- both indicate
            workflow bookkeeping bugs and must not be silent.
        """
        if member_index in self._index_of:
            raise ValueError(f"member {member_index} already accumulated")
        forecast = np.asarray(forecast, dtype=np.float64)
        if forecast.shape != self.central.shape:
            raise ValueError(
                f"forecast shape {forecast.shape} != {self.central.shape}"
            )
        if not np.all(np.isfinite(forecast)):
            raise ValueError(f"member {member_index}: non-finite forecast")
        row = len(self._member_ids)
        if row == len(self._rows):
            grown = np.empty((2 * row, self.central.size))
            grown[:row] = self._rows
            self._rows = grown
        self._rows[row] = self.layout.normalize(forecast - self.central)
        self._index_of[member_index] = row
        self._member_ids.append(member_index)
        self._version += 1

    @property
    def count(self) -> int:
        """Number of accumulated members."""
        return len(self._member_ids)

    @property
    def member_ids(self) -> tuple[int, ...]:
        """Member indices in arrival order (the paper's bookkeeping)."""
        return tuple(self._member_ids)

    # -- snapshots ------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter, bumped on every accumulated member."""
        return self._version

    def view(self) -> AnomalyView:
        """A zero-copy :class:`AnomalyView` of the current columns.

        No data is copied or scaled: the columns are the transpose of the
        written member rows, F-contiguous, which is safe because written
        rows are immutable and capacity growth rebinds (never resizes in
        place) the backing array.  Callers sharing the accumulator across
        threads must take the view under the same lock that guards
        :meth:`add_member`; the returned view itself may then be read
        without the lock.
        """
        cols = self._rows[: self.count].T
        cols.flags.writeable = False
        return AnomalyView(
            columns=cols,
            member_ids=tuple(self._member_ids),
            version=self._version,
        )

