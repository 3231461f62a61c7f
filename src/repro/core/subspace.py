"""Error subspaces: the central ESSE data structure.

An error subspace is a rank-p factorization of the (normalized) error
covariance,

    P ≈ E diag(sigma^2) E^T,

with ``E`` an ``(n, p)`` matrix of orthonormal *error modes* and ``sigma``
the per-mode standard deviations.  ESSE "is based on a characterization and
prediction of the largest uncertainties ... carried out by evolving an
error subspace of variable size" (paper abstract): p changes in time as the
convergence criterion dictates.

All subspaces here live in *normalized* (non-dimensional) state
coordinates -- see :meth:`repro.core.state.FieldLayout.normalize` -- so the
SVD treats velocity, interface and tracer errors on a common footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.util.linalg import (
    gram_columns, gram_svd, lapack_svd, randomized_svd, truncated_svd,
)

#: Relative singular-value floor of every anomaly factorization: modes
#: below it are numerical rank deficiency, not uncertainty.
ANOMALY_RTOL = 1e-10


def _factor(
    anomalies: np.ndarray,
    rank: int | None,
    energy: float | None,
    rtol: float,
    method: str,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant modes and singular values of an ``(n, N)`` anomaly matrix."""
    anomalies = np.asarray(anomalies)
    if anomalies.ndim != 2:
        raise ValueError("anomalies must be (n, N)")
    if anomalies.shape[1] < 2:
        raise ValueError("need at least 2 anomaly columns")
    if method == "lapack":
        u, s, _ = truncated_svd(anomalies, rank=rank, energy=energy, rtol=rtol)
    elif method == "randomized":
        if rank is None:
            raise ValueError("randomized SVD requires an explicit rank")
        u, s, _ = randomized_svd(anomalies, rank=rank, rng=rng)
        if energy is not None:
            power = np.cumsum(s**2)
            keep = int(np.searchsorted(power, energy * power[-1]) + 1)
            u, s = u[:, :keep], s[:keep]
    else:
        raise ValueError(f"unknown SVD method {method!r}")
    return u, s


@dataclass(frozen=True)
class ErrorSubspace:
    """A rank-p error subspace (normalized coordinates).

    Attributes
    ----------
    modes:
        Orthonormal columns, shape ``(n, p)``.
    sigmas:
        Per-mode standard deviations, shape ``(p,)``, descending, >= 0.
    n_samples:
        Number of ensemble members that produced the estimate (0 for
        prescribed subspaces).
    """

    modes: np.ndarray
    sigmas: np.ndarray
    n_samples: int = 0

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=np.float64)
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if modes.ndim != 2:
            raise ValueError(f"modes must be 2-D, got shape {modes.shape}")
        if sigmas.ndim != 1 or sigmas.size != modes.shape[1]:
            raise ValueError(
                f"sigmas shape {sigmas.shape} does not match {modes.shape[1]} modes"
            )
        if np.any(sigmas < 0):
            raise ValueError("sigmas must be non-negative")
        if np.any(np.diff(sigmas) > 1e-12):
            raise ValueError("sigmas must be sorted descending")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "sigmas", sigmas)

    # -- basic properties -------------------------------------------------

    @property
    def rank(self) -> int:
        """Subspace dimension p."""
        return self.modes.shape[1]

    @property
    def state_dim(self) -> int:
        """State dimension n."""
        return self.modes.shape[0]

    @property
    def variances(self) -> np.ndarray:
        """Per-mode variances sigma^2."""
        return self.sigmas**2

    @property
    def total_variance(self) -> float:
        """tr(P) within the subspace."""
        return float(np.sum(self.sigmas**2))

    # -- covariance actions ------------------------------------------------

    def covariance_action(self, vector: np.ndarray) -> np.ndarray:
        """Apply ``P = E diag(s^2) E^T`` to a vector without forming P."""
        vector = np.asarray(vector)
        if vector.shape != (self.state_dim,):
            raise ValueError(
                f"vector shape {vector.shape} != ({self.state_dim},)"
            )
        return self.modes @ (self.variances * (self.modes.T @ vector))

    def variance_field(self) -> np.ndarray:
        """Pointwise variance diag(P), shape ``(n,)``.

        This is what the paper's Figs 5-6 map (as standard deviations).
        """
        return np.einsum("ij,j,ij->i", self.modes, self.variances, self.modes)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the subspace to an ``.npz`` file."""
        np.savez_compressed(
            path, modes=self.modes, sigmas=self.sigmas, n_samples=self.n_samples
        )

    @classmethod
    def load(cls, path: str | Path) -> "ErrorSubspace":
        """Read a subspace written by :meth:`save`."""
        with np.load(path) as data:
            return cls(
                modes=data["modes"],
                sigmas=data["sigmas"],
                n_samples=int(data["n_samples"]),
            )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_anomalies(
        cls,
        anomalies: np.ndarray,
        rank: int | None = None,
        energy: float | None = None,
        method: str = "lapack",
        rng: np.random.Generator | None = None,
    ) -> "ErrorSubspace":
        """Estimate a subspace from an ``(n, N)`` matrix of scaled anomalies.

        The columns must already include the ``1/sqrt(N-1)`` factor (see
        :class:`repro.core.covariance.AnomalyAccumulator`), so the singular
        values are directly the error standard deviations.  Callers that
        hold *raw* columns and a scale use an estimator's ``update``
        instead, which scales the singular values and copies nothing.

        Parameters
        ----------
        method:
            ``"lapack"`` (the exact factorization of
            :func:`repro.util.linalg.truncated_svd`: in ensemble space
            when the matrix is tall, by the LAPACK driver otherwise) or
            ``"randomized"`` (sketching; the paper's Sec 4.1 ablation --
            requires ``rank``).
        rng:
            Sketch generator for the randomized method.
        """
        u, s = _factor(anomalies, rank, energy, ANOMALY_RTOL, method, rng)
        return cls(modes=u, sigmas=s, n_samples=np.shape(anomalies)[1])


class ColdSubspaceEstimator:
    """The from-scratch form of :class:`IncrementalSubspaceEstimator`.

    Same one operation, nothing carried between calls: every
    :meth:`update` factors the columns it is handed.  It is what
    :meth:`repro.core.driver.ESSEConfig.subspace_estimator` builds when
    the randomized method was asked for (a cold sketch per checkpoint is
    its own documented trade-off), and the one-shot way to factor raw
    columns with a scale, so callers never branch on which kind they
    hold.

    Parameters
    ----------
    rank / energy / method / rng:
        As in :meth:`ErrorSubspace.from_anomalies`.
    """

    #: Every update recomputes from scratch.
    last_path = "cold"

    def __init__(
        self,
        rank: int | None = None,
        energy: float | None = None,
        method: str = "lapack",
        rng: np.random.Generator | None = None,
    ):
        self.rank = rank
        self.energy = energy
        self.method = method
        self.rng = rng

    def update(
        self, columns: np.ndarray, count: int | None = None, scale: float = 1.0
    ) -> ErrorSubspace:
        """Factor the first ``count`` raw columns; ``scale`` the singular values."""
        columns = np.asarray(columns)
        if count is None:
            count = columns.shape[1]
        u, s = _factor(
            columns[:, :count], self.rank, self.energy, ANOMALY_RTOL, self.method, self.rng
        )
        return ErrorSubspace(modes=u, sigmas=s * scale, n_samples=count)


class IncrementalSubspaceEstimator:
    """Exact subspace estimation over a growing column stream.

    The differ->SVD hot path re-estimates the error subspace at every
    checkpoint -- "a lot of memory and time, especially for large N"
    (paper Sec 4.1).  The factorization runs in ensemble space
    (:func:`repro.util.linalg.gram_svd`), where the only ``O(n N^2)``
    step is the ``N x N`` Gram matrix of the raw columns; this estimator
    *carries* that matrix between checkpoints and extends it by the
    ``N x k_new`` block of the columns that arrived since
    (``O(n N k_new)``).  Nothing is truncated in the carry, so every
    checkpoint equals the cold factorization of the same columns to
    round-off (``docs/COVFILE_PROTOCOL.md``, test-enforced at 1e-12), and
    there is no drift to guard against.

    :attr:`last_path` says what the last :meth:`update` did:

    - ``"exact"`` -- first call, or a restart: the Gram matrix was
      computed from all columns;
    - ``"update"`` -- the carried Gram matrix was extended by the new
      columns only;
    - ``"guard"`` -- the kept set reached below the Gram route's trust
      floor (or the matrix is not tall), so the columns were factored by
      the LAPACK driver; the Gram matrix is carried on regardless.

    Columns are *raw* (unscaled) anomalies; pass the snapshot's
    ``1/sqrt(N-1)`` factor as ``scale`` and it is applied to the singular
    values only -- this is why a carry works at all: the scaled matrix
    changes in every column as N grows, the raw matrix only ever grows on
    the right.

    Parameters
    ----------
    rank:
        Subspace rank cap (as in :meth:`ErrorSubspace.from_anomalies`).
    energy:
        Retained-variance fraction cut.
    rank_buffer, guard_tol, rng:
        Validated and ignored: an exact carry has no working rank, drift
        guard or sketch (``benchmarks/suite`` still passes them; a later
        benchmark change drops them).
    """

    def __init__(
        self,
        rank: int | None = None,
        energy: float | None = None,
        rank_buffer: int = 16,
        guard_tol: float = 1.0,
        rng: np.random.Generator | None = None,
    ):
        if rank is not None and rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank_buffer < 0:
            raise ValueError("rank_buffer must be >= 0")
        if guard_tol < 0.0:
            raise ValueError(f"guard_tol must be >= 0, got {guard_tol}")
        self.rank = rank
        self.energy = energy
        self._gram: np.ndarray | None = None  # raw columns' Gram matrix
        self._state_dim = 0
        self.last_path: str | None = None  # "exact" | "update" | "guard"

    def update(
        self, columns: np.ndarray, count: int | None = None, scale: float = 1.0
    ) -> ErrorSubspace:
        """Fold the columns newly appended since the last call; return the subspace.

        Parameters
        ----------
        columns:
            Raw anomaly matrix ``(n, count)``.  Must be append-only with
            respect to the previous call: the first ``count_prev``
            columns are assumed bit-identical to what was already folded
            in (the accumulator/column-store contract).  A shrinking or
            reshaped stream triggers a from-scratch recompute.
        count:
            Number of valid columns (defaults to ``columns.shape[1]``).
        scale:
            Factor applied to the singular values (``1/sqrt(count-1)``
            for covariance normalization).
        """
        columns = np.asarray(columns, dtype=np.float64)
        if columns.ndim != 2:
            raise ValueError(f"columns must be 2-D, got shape {columns.shape}")
        if count is None:
            count = columns.shape[1]
        if count < 2 or count > columns.shape[1]:
            raise ValueError(
                f"count {count} invalid for columns of shape {columns.shape}"
            )
        raw = columns[:, :count]
        folded = 0 if self._gram is None else self._gram.shape[0]
        if folded == 0 or count < folded or self._state_dim != raw.shape[0]:
            self._gram = raw.T @ raw
            self._state_dim = raw.shape[0]
            self.last_path = "exact"
        else:
            if count > folded:
                block = gram_columns(raw, folded)  # (count, k_new)
                gram = np.empty((count, count))
                gram[:folded, :folded] = self._gram
                gram[:, folded:] = block
                gram[folded:, :folded] = block[:folded].T
                self._gram = gram
            self.last_path = "update"
        cut = (self.rank, self.energy, ANOMALY_RTOL)
        factors = gram_svd(raw, *cut, gram=self._gram)
        if factors is None:
            factors = lapack_svd(raw, *cut)
            self.last_path = "guard"
        u, s, _ = factors
        return ErrorSubspace(modes=u, sigmas=s * scale, n_samples=count)

    def reset(self) -> None:
        """Forget the carried Gram matrix (new forecast cycle)."""
        self._gram = None
        self.last_path = None
