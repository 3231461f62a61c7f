"""Normal-mode solution of the vertical acoustic eigenproblem.

For a sound-speed profile c(z) in a waveguide of depth H at angular
frequency omega, the depth-separated Helmholtz equation is

    psi''(z) + (omega^2 / c(z)^2 - kr^2) psi(z) = 0,

with a pressure-release surface (psi(0) = 0) and a rigid bottom
(psi'(H) = 0).  Discretized on a uniform grid this is a symmetric
tridiagonal eigenproblem.  LAPACK's ``stemr`` (MRRR) driver returns the
whole spectrum of a 75-point column in O(nz^2) -- several times faster
than bisection plus inverse iteration over a selected band -- and the
propagating band ``0 < kr^2 <= max(k^2)`` is kept afterwards.
:func:`solve_mode_stack` solves a section's columns in one pass: one
``stemr`` call per column, then normalization and signs over the
zero-padded stack.  On a 2-vCPU x86-64 host (one BLAS thread) a 75-point
column takes about 0.4 ms, three quarters of a TL task; a ``cycle_ref``
task (16 columns, 12 distinct) takes 7.3 ms in the benchmark record.
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
) -> ModeSet:
    """Solve the vertical eigenproblem for one profile (every mode).

    The one-column case of :func:`solve_mode_stack`.

    Parameters
    ----------
    sound_speed:
        c(z) on ``depths`` (m/s).
    depths:
        Uniform ascending grid, metres positive down; ``depths[0]`` is the
        surface.
    frequency:
        Source frequency (Hz), > 0.

    Returns
    -------
    ModeSet
        Possibly empty (no propagating modes below cutoff).
    """
    c = np.asarray(sound_speed, dtype=float)
    z = np.asarray(depths, dtype=float)
    if c.ndim != 1 or c.shape != z.shape:
        raise ValueError("sound_speed and depths must be matching 1-D arrays")
    kr, psi, n_modes = solve_mode_stack(c[:, None], z, [c.size], frequency)
    n = int(n_modes[0])
    return ModeSet(kr=kr[0, :n], psi=psi[0, :n].T, depths=z, frequency=frequency)


def solve_mode_stack(
    sound_speed: np.ndarray,
    depths: np.ndarray,
    n_water: np.ndarray,
    frequency: float,
    max_modes: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the vertical eigenproblem for a stack of profiles.

    ``sound_speed`` is ``(nz, n_cols)`` on :func:`solve_modes`'s grid
    ``depths``; column ``k`` has its rigid seabed at node ``n_water[k] - 1``.
    Returns ``(kr, psi, n_modes)``: wavenumbers ``(n_cols, width)`` and mode
    functions ``(n_cols, width, nz)`` (each contiguous in depth), zero past
    column ``k``'s ``n_modes[k]`` modes and below its seabed, in
    :class:`ModeSet`'s order, normalization and signs.
    """
    c = np.asarray(sound_speed, dtype=float)
    z = np.asarray(depths, dtype=float)
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    if max_modes is not None and max_modes < 1:
        raise ValueError(f"max_modes must be at least 1, got {max_modes}")
    n_water = np.asarray(n_water)
    if np.any(n_water < 4) or np.any(n_water > z.size):
        raise ValueError(f"need at least 4 grid points per column, at most {z.size}")
    dz = np.diff(z)
    if np.any(dz <= 0) or not np.allclose(dz, dz[0], rtol=1e-6):
        raise ValueError("depth grid must be uniform and ascending")
    dz = float(dz[0])
    wet = np.arange(z.size)[:, None] < n_water
    if not np.all(c[wet] > 0):  # NaN fails too, so LAPACK needs no check
        raise ValueError("sound speed must be positive")

    k2 = (2.0 * np.pi * frequency / c) ** 2
    k2_max = np.max(k2, axis=0, where=wet, initial=0.0)
    # Interior points: surface node removed by psi(0) = 0; the bottom node
    # keeps psi'(H) = 0 via a mirrored ghost point.
    diag = -2.0 / dz**2 + k2[1:]
    off = np.full(z.size - 2, 1.0 / dz**2)
    n_cols = c.shape[1]
    width = z.size - 1 if max_modes is None else min(max_modes, z.size - 1)
    kr = np.zeros((n_cols, width))
    psi = np.zeros((n_cols, width, z.size))
    n_modes = np.zeros(n_cols, dtype=int)
    for k, n in enumerate(n_water):
        d = diag[: n - 1, k].copy()
        d[-1] += 1.0 / dz**2  # rigid-bottom mirror
        # One full-spectrum solve, then keep the propagating band: kr^2 > 0
        # discards evanescent modes, and kr^2 cannot exceed max(k2).  LAPACK
        # returns ascending order; largest kr^2 = lowest mode first.
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            d, off[: n - 2], check_finite=False, lapack_driver="stemr"
        )
        lo, hi = np.searchsorted(vals, (0.0, k2_max[k]), side="right")
        m = n_modes[k] = min(hi - lo, width)
        kr[k, :m] = np.sqrt(vals[hi - m : hi][::-1])
        psi[k, :m, 1:n] = vecs[:, hi - m : hi][:, ::-1].T

    # Normalize: integral of psi^2 over the water = 1 (trapezoid on the
    # uniform grid; psi(0) = 0, so only the seabed node has half weight).
    seabed = psi[np.arange(n_cols), :, n_water - 1]
    norms = np.sqrt(dz * (np.einsum("kmz,kmz->km", psi, psi) - 0.5 * seabed**2))
    psi /= np.where(norms > 0.0, norms, 1.0)[..., None]
    # Sign convention: mode maximum positive near the surface duct.
    peak = np.argmax(np.abs(psi), axis=-1)[..., None]
    psi *= np.where(np.take_along_axis(psi, peak, axis=-1) < 0, -1.0, 1.0)
    return kr, psi, n_modes
