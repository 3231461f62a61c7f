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
    svd_rank_update,
    thin_svd,
    truncated_svd,
    warm_randomized_svd,
)


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

    def sample_coefficients(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` coefficient vectors ~ N(0, diag(sigma^2)).

        Shape ``(count, p)``; ``modes @ coeffs[j]`` is one state perturbation.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        return rng.standard_normal((count, self.rank)) * self.sigmas[None, :]

    def truncate(self, rank: int | None = None, energy: float | None = None) -> "ErrorSubspace":
        """A lower-rank copy keeping the dominant modes."""
        if rank is None and energy is None:
            raise ValueError("pass rank= or energy=")
        keep = self.rank
        if energy is not None:
            if not 0.0 < energy <= 1.0:
                raise ValueError("energy must be in (0, 1]")
            power = np.cumsum(self.variances)
            total = power[-1] if power.size else 0.0
            keep = 1 if total == 0 else int(np.searchsorted(power, energy * total) + 1)
        if rank is not None:
            keep = min(keep, max(int(rank), 1))
        keep = min(keep, self.rank)
        return ErrorSubspace(
            modes=self.modes[:, :keep],
            sigmas=self.sigmas[:keep],
            n_samples=self.n_samples,
        )

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
        rtol: float = 1e-10,
        method: str = "lapack",
        rng: np.random.Generator | None = None,
    ) -> "ErrorSubspace":
        """Estimate a subspace from an ``(n, N)`` matrix of scaled anomalies.

        The columns must already include the ``1/sqrt(N-1)`` factor (see
        :class:`repro.core.covariance.AnomalyAccumulator`), so the singular
        values are directly the error standard deviations.

        Parameters
        ----------
        method:
            ``"lapack"`` (exact thin SVD) or ``"randomized"`` (sketching;
            the scalable answer to the paper's large-N SVD concern --
            requires ``rank``).
        rng:
            Sketch generator for the randomized method.
        """
        anomalies = np.asarray(anomalies)
        if anomalies.ndim != 2:
            raise ValueError("anomalies must be (n, N)")
        n_cols = anomalies.shape[1]
        if n_cols < 2:
            raise ValueError("need at least 2 anomaly columns")
        if method == "lapack":
            u, s, _ = truncated_svd(anomalies, rank=rank, energy=energy, rtol=rtol)
        elif method == "randomized":
            if rank is None:
                raise ValueError("randomized SVD requires an explicit rank")
            from repro.util.linalg import randomized_svd

            u, s, _ = randomized_svd(anomalies, rank=rank, rng=rng)
            if energy is not None:
                power = np.cumsum(s**2)
                keep = int(np.searchsorted(power, energy * power[-1]) + 1)
                u, s = u[:, :keep], s[:keep]
        else:
            raise ValueError(f"unknown SVD method {method!r}")
        return cls(modes=u, sigmas=s, n_samples=n_cols)


class ColdSubspaceEstimator:
    """The from-scratch form of :class:`IncrementalSubspaceEstimator`.

    Same one operation, nothing carried between calls: every
    :meth:`update` is a full :meth:`ErrorSubspace.from_anomalies` of the
    columns it is handed.  It is what
    :meth:`repro.core.driver.ESSEConfig.subspace_estimator` builds when
    warm starting is off or the randomized method was asked for (a cold
    sketch per checkpoint is its own documented trade-off), so callers
    never branch on which kind they hold.

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
        """Factor the first ``count`` raw columns, scaled by ``scale``."""
        columns = np.asarray(columns)
        if count is None:
            count = columns.shape[1]
        return ErrorSubspace.from_anomalies(
            columns[:, :count] * scale,
            rank=self.rank,
            energy=self.energy,
            method=self.method,
            rng=self.rng,
        )


class IncrementalSubspaceEstimator:
    """Warm-started subspace estimation over a growing column stream.

    The differ->SVD hot path re-estimated the error subspace from
    scratch at every checkpoint -- ``O(n N^2)`` each time, "a lot of
    memory and time, especially for large N" (paper Sec 4.1).  This
    estimator instead carries the previous checkpoint's factorization
    and folds in only the columns that arrived since:

    - **rank update** (:func:`repro.util.linalg.svd_rank_update`) when
      the batch of new columns is small: ``O(n (p + k)^2)``, exact up to
      the energy already discarded by truncation;
    - **warm-started sketch**
      (:func:`repro.util.linalg.warm_randomized_svd`) when the batch is
      large: the previous basis seeds the range finder, so one power
      iteration replaces a full dense SVD;
    - **exact fallback** (:func:`repro.util.linalg.truncated_svd`)
      whenever the *accuracy guard* trips: the estimator tracks the
      energy its carried factorization has discarded since the last
      exact factorization; when that exceeds ``guard_tol`` times the
      energy the carry retains, the next update recomputes from scratch
      instead of compounding drift.

    The guard is a *drift backstop*, not a per-checkpoint error bound:
    a stationary noise floor (which truncation discards by design, and
    which any rigorous cheap bound would flag) does not trip it at the
    default setting.  The accuracy contract is empirical and
    test-enforced (``docs/COVFILE_PROTOCOL.md``): on decaying spectra
    the retained singular values match :func:`~repro.util.linalg.thin_svd`
    to a relative 1e-6; with a heavy noise floor the documented
    tolerance is 1e-2 of the leading singular value (typically ~1e-3),
    tightened by carrying a larger ``rank_buffer``.

    Columns are *raw* (unscaled) anomalies; pass the snapshot's
    ``1/sqrt(N-1)`` factor as ``scale`` and it is applied to the singular
    values only -- this is why the incremental path works at all: the
    scaled matrix changes in every column as N grows, the raw matrix
    only ever grows on the right.

    Parameters
    ----------
    rank:
        Final subspace rank cap (as in :meth:`ErrorSubspace.from_anomalies`).
    energy:
        Retained-variance fraction cut applied to the final subspace.
    rank_buffer:
        Extra modes carried internally beyond ``rank`` so truncation
        error stays below the guard (working rank = rank + rank_buffer).
    guard_tol:
        Maximum tolerated ratio of energy discarded (since the last
        exact factorization) to energy retained before an exact
        recompute; ``inf`` disables the backstop (see
        ``docs/COVFILE_PROTOCOL.md``).
    warm_batch_factor:
        Batches larger than ``warm_batch_factor * working_rank`` use the
        warm-started sketch instead of the rank update.
    rng:
        Sketch generator for the warm-started randomized path.
    """

    def __init__(
        self,
        rank: int | None = None,
        energy: float | None = None,
        rank_buffer: int = 16,
        guard_tol: float = 1.0,
        warm_batch_factor: float = 4.0,
        rng: np.random.Generator | None = None,
    ):
        if rank is not None and rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank_buffer < 0:
            raise ValueError("rank_buffer must be >= 0")
        if guard_tol < 0.0:
            raise ValueError(f"guard_tol must be >= 0, got {guard_tol}")
        if warm_batch_factor <= 0:
            raise ValueError("warm_batch_factor must be > 0")
        self.rank = rank
        self.energy = energy
        self.rank_buffer = int(rank_buffer)
        self.guard_tol = float(guard_tol)
        self.warm_batch_factor = float(warm_batch_factor)
        self.rng = rng
        self._u: np.ndarray | None = None
        self._s: np.ndarray | None = None
        self._count = 0
        self._frob2 = 0.0  # exact running ||A_raw||_F^2 over all columns seen
        self._discarded = 0.0  # energy shed since the last exact factorization
        self.last_path: str | None = None  # "exact" | "update" | "warm" | "guard"

    # -- internals ---------------------------------------------------------

    def _working_rank(self, count: int) -> int:
        cap = count if self.rank is None else self.rank + self.rank_buffer
        return max(1, min(cap, count))

    def _guard_tripped(self) -> bool:
        if self._s is None:
            return False
        retained = float(np.sum(self._s**2))
        if retained <= 0.0:
            return self._discarded > 0.0
        return self._discarded > self.guard_tol * retained

    def _exact(self, columns: np.ndarray, keep: int) -> None:
        u, s, _ = thin_svd(columns)
        self._u, self._s = u[:, :keep], s[:keep]
        # The tail cut here is the unavoidable working-rank truncation,
        # not drift: the guard meters what accumulates on top of it.
        self._discarded = 0.0

    # -- the one public operation ------------------------------------------

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
        columns = np.asarray(columns)
        if columns.ndim != 2:
            raise ValueError(f"columns must be 2-D, got shape {columns.shape}")
        if count is None:
            count = columns.shape[1]
        if count < 2 or count > columns.shape[1]:
            raise ValueError(
                f"count {count} invalid for columns of shape {columns.shape}"
            )
        keep = self._working_rank(count)
        restart = (
            self._u is None
            or count < self._count
            or self._u.shape[0] != columns.shape[0]
        )
        if restart:
            self._frob2 = float(np.einsum("ij,ij->", columns[:, :count],
                                          columns[:, :count]))
            self._exact(columns[:, :count], keep)
            self.last_path = "exact"
        else:
            new = columns[:, self._count : count]
            if new.shape[1]:
                self._frob2 += float(np.einsum("ij,ij->", new, new))
            if self._guard_tripped():
                self._exact(columns[:, :count], keep)
                self.last_path = "guard"
            elif new.shape[1] == 0:
                self.last_path = "update"
            elif new.shape[1] > self.warm_batch_factor * keep:
                u, s, _ = warm_randomized_svd(
                    columns[:, :count], keep, basis=self._u, rng=self.rng
                )
                self._u, self._s = u, s
                # A warm sketch refactorizes the full matrix, so carried
                # drift does not compound through it; its own error is
                # bounded by oversampling + power iteration and checked
                # against thin_svd in the tests.
                self._discarded = 0.0
                self.last_path = "warm"
            else:
                u, s = svd_rank_update(self._u, self._s, new)
                self._discarded += float(np.sum(s[keep:] ** 2))
                self._u, self._s = u[:, :keep], s[:keep]
                self.last_path = "update"
        self._count = count
        u, s = self._u, self._s * scale
        # Final rank/energy cut, mirroring truncated_svd's composition.
        final = s.size
        if self.energy is not None:
            power = np.cumsum(s**2)
            total = power[-1] if power.size else 0.0
            final = 1 if total == 0 else int(np.searchsorted(power, self.energy * total) + 1)
        if self.rank is not None:
            final = min(final, self.rank)
        final = max(1, min(final, s.size))
        return ErrorSubspace(modes=u[:, :final], sigmas=s[:final], n_samples=count)

    def reset(self) -> None:
        """Forget the carried factorization (new forecast cycle)."""
        self._u = None
        self._s = None
        self._count = 0
        self._frob2 = 0.0
        self._discarded = 0.0
        self.last_path = None
