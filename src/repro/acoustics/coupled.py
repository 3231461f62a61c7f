"""Coupled physical-acoustical covariance and uncertainty modes.

Paper Sec 2.2: "The coupled physical-acoustical covariance P for the
section is computed and non-dimensionalized.  Its dominant eigenvectors
(uncertainty modes) can be used for coupled physical-acoustical
assimilation of hydrographic and TL data."

Given an ensemble of (temperature section, TL field) pairs, we stack each
pair into one joint vector, non-dimensionalize each block by its ensemble
spread, and take the thin SVD of the anomaly matrix -- the dominant left
singular vectors are the coupled uncertainty modes, and the implied
cross-covariance block quantifies how hydrographic errors map into TL
errors.  The coupled assimilation the paper goes on to name is not
implemented: nothing in the cycle observes transmission loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.tl import TLField
from repro.util.linalg import truncated_svd


@dataclass(frozen=True)
class CoupledCovariance:
    """Low-rank factorization of the coupled covariance.

    The joint anomaly vector is ``[T_section / sT, TL / sTL]`` where sT and
    sTL are the scalar non-dimensionalization factors; the covariance is
    ``P = modes @ diag(variances) @ modes.T`` in those units.

    Attributes
    ----------
    modes:
        Orthonormal coupled uncertainty modes, shape ``(nT + nTL, p)``.
    variances:
        Mode variances (singular values squared / (N-1)), descending.
    n_physical:
        Size of the physical (temperature) block.
    temp_scale, tl_scale:
        Non-dimensionalization factors actually used.
    """

    modes: np.ndarray
    variances: np.ndarray
    n_physical: int
    temp_scale: float
    tl_scale: float

    @property
    def n_modes(self) -> int:
        """Number of retained coupled modes."""
        return self.variances.size

    def physical_block(self) -> np.ndarray:
        """The temperature part of each mode, shape ``(nT, p)``."""
        return self.modes[: self.n_physical, :]

    def acoustic_block(self) -> np.ndarray:
        """The TL part of each mode, shape ``(nTL, p)``."""
        return self.modes[self.n_physical :, :]

    def cross_covariance(self) -> np.ndarray:
        """Non-dimensional physical-acoustical covariance block ``(nT, nTL)``."""
        return (
            self.physical_block()
            @ np.diag(self.variances)
            @ self.acoustic_block().T
        )

    def coupling_fraction(self) -> np.ndarray:
        """Per-mode fraction of variance in the acoustic block (0..1)."""
        acoustic = np.sum(self.acoustic_block() ** 2, axis=0)
        total = np.sum(self.modes**2, axis=0)
        return acoustic / total


def coupled_uncertainty_modes(
    temp_sections: np.ndarray,
    tl_fields: list[TLField] | np.ndarray,
) -> CoupledCovariance:
    """Coupled physical-acoustical modes from an ensemble.

    Parameters
    ----------
    temp_sections:
        Ensemble of temperature sections, shape ``(N, ...)``; trailing axes
        are flattened.
    tl_fields:
        Matching ensemble of :class:`TLField` (or a raw ``(N, ...)`` array
        of TL values in dB).

    The truncation keeps 99 % of the coupled variance.

    Raises
    ------
    ValueError
        On ensemble size < 2 or mismatched member counts.
    """
    temps = np.asarray(temp_sections, dtype=float)
    if isinstance(tl_fields, np.ndarray):
        tls = tl_fields.astype(float)
    else:
        tls = np.stack([f.tl for f in tl_fields])
    n = temps.shape[0]
    if n < 2:
        raise ValueError("need an ensemble of at least 2 members")
    if tls.shape[0] != n:
        raise ValueError(
            f"{n} temperature members vs {tls.shape[0]} TL members"
        )
    t_mat = temps.reshape(n, -1)
    a_mat = tls.reshape(n, -1)

    t_anom = t_mat - t_mat.mean(axis=0)
    a_anom = a_mat - a_mat.mean(axis=0)
    # Non-dimensionalize each block by its RMS ensemble spread so neither
    # degC nor dB units dominate the joint SVD (paper: "computed and
    # non-dimensionalized").
    t_scale = float(np.sqrt(np.mean(t_anom**2))) or 1.0
    a_scale = float(np.sqrt(np.mean(a_anom**2))) or 1.0
    joint = np.hstack([t_anom / t_scale, a_anom / a_scale]).T  # (nT+nTL, N)
    joint /= np.sqrt(n - 1)

    u, s, _ = truncated_svd(joint, energy=0.99)
    return CoupledCovariance(
        modes=u,
        variances=s**2,
        n_physical=t_mat.shape[1],
        temp_scale=t_scale,
        tl_scale=a_scale,
    )
