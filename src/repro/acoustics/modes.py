"""Normal-mode solution of the vertical acoustic eigenproblem.

For a sound-speed profile c(z) in a waveguide of depth H at angular
frequency omega, the depth-separated Helmholtz equation is

    psi''(z) + (omega^2 / c(z)^2 - kr^2) psi(z) = 0,

with a pressure-release surface (psi(0) = 0) and a rigid bottom
(psi'(H) = 0).  Discretized on a uniform grid this is a symmetric
tridiagonal eigenproblem.  LAPACK's ``stemr`` (MRRR) driver returns the
whole spectrum of a 75-point column in O(nz^2) -- several times faster
than bisection plus inverse iteration over a selected band -- and the
propagating band ``0 < kr^2 <= max(k^2)`` is kept afterwards, which holds
single-task cost well under a millisecond and makes the 6000-task
acoustic-climate runs (paper Sec 5.2.1) cheap to reproduce faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class ModeSet:
    """Propagating modes of one profile at one frequency.

    Attributes
    ----------
    kr:
        Horizontal wavenumbers (rad/m), descending (mode 1 first).
    psi:
        Mode functions on the solver grid, shape ``(nz, n_modes)``,
        normalized so that ``integral psi_m^2 dz = 1``.
    depths:
        Solver grid (m), shape ``(nz,)``.
    frequency:
        Acoustic frequency (Hz).
    """

    kr: np.ndarray
    psi: np.ndarray
    depths: np.ndarray
    frequency: float

    @property
    def n_modes(self) -> int:
        """Number of propagating modes."""
        return self.kr.size

    def at_depth(self, depth: float) -> np.ndarray:
        """Mode amplitudes psi_m(depth) by linear interpolation."""
        # Fractional node index of ``depth`` (clamped to the grid ends),
        # then one weighted sum of the two bracketing rows for all modes.
        pos = float(np.interp(depth, self.depths, np.arange(self.depths.size)))
        k = min(int(pos), self.depths.size - 2)
        w = pos - k
        return (1.0 - w) * self.psi[k] + w * self.psi[k + 1]


def solve_modes(
    sound_speed: np.ndarray,
    depths: np.ndarray,
    frequency: float,
    max_modes: int | None = None,
) -> ModeSet:
    """Solve the vertical eigenproblem for one profile.

    Parameters
    ----------
    sound_speed:
        c(z) on ``depths`` (m/s).
    depths:
        Uniform ascending grid, metres positive down; ``depths[0]`` is the
        surface.
    frequency:
        Source frequency (Hz), > 0.
    max_modes:
        Optional cap on the number of returned modes.

    Returns
    -------
    ModeSet
        Possibly empty (no propagating modes below cutoff).
    """
    c = np.asarray(sound_speed, dtype=float)
    z = np.asarray(depths, dtype=float)
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    if c.ndim != 1 or c.shape != z.shape:
        raise ValueError("sound_speed and depths must be matching 1-D arrays")
    if c.size < 4:
        raise ValueError("need at least 4 grid points")
    dz = np.diff(z)
    if np.any(dz <= 0) or not np.allclose(dz, dz[0], rtol=1e-6):
        raise ValueError("depth grid must be uniform and ascending")
    dz = float(dz[0])
    if np.any(c <= 0):
        raise ValueError("sound speed must be positive")

    omega = 2.0 * np.pi * frequency
    k2 = (omega / c) ** 2

    # Interior points: surface node removed by psi(0) = 0; the bottom node
    # keeps psi'(H) = 0 via a mirrored ghost point.
    n = c.size - 1  # unknowns: z_1..z_n (z_0 is the surface)
    diag = -2.0 / dz**2 + k2[1:]
    off = np.full(n - 1, 1.0 / dz**2)
    diag = diag.copy()
    diag[-1] = -2.0 / dz**2 + k2[-1] + 1.0 / dz**2  # rigid-bottom mirror

    # One full-spectrum solve, then keep the propagating band: kr^2 > 0
    # discards evanescent modes, and kr^2 cannot exceed max(k2).
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stemr")
    keep = (vals > 0.0) & (vals <= float(np.max(k2)))
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size == 0:
        return ModeSet(
            kr=np.empty(0),
            psi=np.empty((c.size, 0)),
            depths=z,
            frequency=frequency,
        )

    # LAPACK returns ascending order; largest kr^2 = lowest mode first.
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if max_modes is not None:
        vals = vals[:max_modes]
        vecs = vecs[:, :max_modes]

    kr = np.sqrt(vals)
    psi = np.zeros((c.size, kr.size))
    psi[1:, :] = vecs
    # Normalize: integral of psi^2 over depth = 1 (trapezoid on uniform grid).
    norms = np.sqrt(np.trapezoid(psi**2, dx=dz, axis=0))
    psi /= norms[None, :]
    # Sign convention: mode maximum positive near the surface duct.
    peak = np.argmax(np.abs(psi), axis=0)
    psi *= np.where(psi[peak, np.arange(kr.size)] < 0, -1.0, 1.0)
    return ModeSet(kr=kr, psi=psi, depths=z, frequency=frequency)
