"""Subspace convergence criterion.

Paper Sec 3.1: "A convergence criterion compares error subspaces of
different sizes.  Hence the dimensions of the ensemble and error subspace
vary in time in accord with data and dynamics."

Following the similarity-coefficient construction of Lermusiaux & Robinson
(1999), two weighted subspaces ``(E1, s1)`` and ``(E2, s2)`` are compared
through the nuclear norm of the weighted overlap,

    rho = || diag(s1) E1^T E2 diag(s2) ||_*  /  (||s1||_2 ||s2||_2),

which is 1 exactly when the subspaces span the same space *and* weight it
with proportional spectra, and decreases toward 0 as dominant directions
disagree.  (von Neumann's trace inequality bounds the numerator by the
product of Frobenius norms, so rho is always in [0, 1].)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.core.subspace import ErrorSubspace


def similarity_coefficient(a: ErrorSubspace, b: ErrorSubspace) -> float:
    """The weighted subspace similarity rho in [0, 1]."""
    if a.state_dim != b.state_dim:
        raise ValueError(
            f"subspaces live in different state spaces: {a.state_dim} vs {b.state_dim}"
        )
    if a.rank == 0 or b.rank == 0:
        raise ValueError("cannot compare empty subspaces")
    overlap = (a.sigmas[:, None] * (a.modes.T @ b.modes)) * b.sigmas[None, :]
    nuclear = float(np.sum(scipy.linalg.svd(overlap, compute_uv=False)))
    denom = float(np.linalg.norm(a.sigmas) * np.linalg.norm(b.sigmas))
    if denom == 0.0:
        raise ValueError("cannot compare zero-variance subspaces")
    return min(nuclear / denom, 1.0)


@dataclass
class ConvergenceCriterion:
    """Sequential convergence test over growing ensembles.

    Parameters
    ----------
    tolerance:
        Declare convergence when rho(previous, current) >= tolerance.

    Notes
    -----
    The criterion is stateful: feed it each successive subspace estimate
    with :meth:`update`; it records the similarity trace, which the
    benchmarks plot against ensemble size (the paper's Fig 2 convergence
    loop).
    """

    tolerance: float = 0.97

    def __post_init__(self):
        if not 0.0 < self.tolerance <= 1.0:
            raise ValueError(f"tolerance must be in (0, 1], got {self.tolerance}")
        self._previous: ErrorSubspace | None = None
        self.history: list[tuple[int, float]] = []

    @property
    def converged(self) -> bool:
        """Whether the last comparison reached the tolerance."""
        return bool(self.history) and self.history[-1][1] >= self.tolerance

    def update(
        self, subspace: ErrorSubspace, count: int | None = None
    ) -> float | None:
        """Compare against the previous estimate; returns rho (None first time).

        Parameters
        ----------
        subspace:
            The new estimate.
        count:
            Ensemble size to record in the history (defaults to
            ``subspace.n_samples``).  The stage loop passes the snapshot
            count explicitly so that history entries name the published
            ensemble size even when one snapshot satisfies several
            growth checkpoints at once.
        """
        rho = None
        if self._previous is not None:
            rho = similarity_coefficient(self._previous, subspace)
            self.history.append(
                (subspace.n_samples if count is None else int(count), rho)
            )
        self._previous = subspace
        return rho

