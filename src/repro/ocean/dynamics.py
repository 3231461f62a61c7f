"""Reduced-gravity shallow-water dynamics.

A 1.5-layer reduced-gravity model is the smallest nonlinear ocean model
that produces the mesoscale phenomenology ESSE feeds on: geostrophic
adjustment, wind-driven upwelling at a coast, instabilities and eddies.
The prognostic variables are the layer velocities ``u, v`` (m/s) and the
interface displacement ``eta`` (m) on a collocated grid; the active upper
layer has rest thickness ``h0`` and reduced gravity ``g'``.

Spatial discretization is second-order centred differences with Laplacian
eddy viscosity; time stepping is forward-backward for the gravity waves
with an exact rotation for the Coriolis terms (see
:meth:`ShallowWaterDynamics.step_dynamics`).  Every stencil reads one
edge-replicated halo copy of its field, so a step is a short sequence of
whole-array NumPy passes: a few tenths of a millisecond for one state on
the default 42x36 AOSN-II grid (about a millisecond with the ten-level
tracer stack of :mod:`repro.ocean.tracers`), which is what makes
O(1000)-member ensembles tractable on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ocean.grid import OceanGrid
from repro.ocean.masking import LandFiller

RHO0 = 1025.0  # reference sea-water density, kg/m^3


# -- halo stencils -------------------------------------------------------------
# A halo array is a field with one extra cell all round that repeats the
# outermost row / column (a ghost-cell layout).  Centred differences over it
# are the one-sided edge differences, given rim_weights, and the Laplacian
# sees zero flux, so no stencil needs an edge case.


def halo_buffer(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised halo array for fields of ``shape``, and its interior view."""
    halo = np.empty((*shape[:-2], shape[-2] + 2, shape[-1] + 2))
    return halo, halo[..., 1:-1, 1:-1]


def replicate_rim(halo: np.ndarray) -> None:
    """Copy the outermost interior rows, then columns, of ``halo`` into its rim."""
    halo[..., 0, 1:-1] = halo[..., 1, 1:-1]
    halo[..., -1, 1:-1] = halo[..., -2, 1:-1]
    halo[..., :, 0] = halo[..., :, 1]
    halo[..., :, -1] = halo[..., :, -2]


def with_halo(fld: np.ndarray, fill: LandFiller | None = None) -> np.ndarray:
    """Halo copy of ``fld`` (any leading axes), land-filled first if asked."""
    halo, interior = halo_buffer(np.shape(fld))
    interior[...] = fld
    if fill is not None:
        fill.fill(interior)
    replicate_rim(halo)
    return halo


def rim_weights(n: int, spacing: float) -> np.ndarray:
    """Difference weights along one axis: ``1/2d`` inside, ``1/d`` on the rim."""
    weights = np.full(n, 0.5 / spacing)
    weights[[0, -1]] = 1.0 / spacing
    return weights


def halo_ddx(halo: np.ndarray, wx: np.ndarray, out=None) -> np.ndarray:
    """x-derivative of a halo array; ``wx`` is ``rim_weights(nx, dx)``."""
    out = np.subtract(halo[..., 1:-1, 2:], halo[..., 1:-1, :-2], out=out)
    out *= wx
    return out


def halo_ddy(halo: np.ndarray, wy: np.ndarray, out=None) -> np.ndarray:
    """y-derivative of a halo array; ``wy`` is ``rim_weights(ny, dy)[:, None]``."""
    out = np.subtract(halo[..., 2:, 1:-1], halo[..., :-2, 1:-1], out=out)
    out *= wy
    return out


def halo_laplacian(halo: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """``cx * d2/dx2 + cy * d2/dy2`` in grid units (``cx = k / dx**2``)."""
    lap = halo[..., 1:-1, 2:] + halo[..., 1:-1, :-2]
    lap *= cx
    term = halo[..., 2:, 1:-1] + halo[..., :-2, 1:-1]
    term *= cy
    lap += term
    np.multiply(halo[..., 1:-1, 1:-1], 2.0 * (cx + cy), out=term)
    lap -= term
    return lap


def ddx(fld: np.ndarray, dx: float) -> np.ndarray:
    """Centred x-derivative with one-sided differences at the edges."""
    return halo_ddx(with_halo(fld), rim_weights(np.shape(fld)[-1], dx))


def ddy(fld: np.ndarray, dy: float) -> np.ndarray:
    """Centred y-derivative with one-sided differences at the edges."""
    return halo_ddy(with_halo(fld), rim_weights(np.shape(fld)[-2], dy)[:, None])


def laplacian(fld: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Five-point Laplacian; zero-flux (Neumann) at the array edges."""
    return halo_laplacian(with_halo(fld), 1.0 / dx**2, 1.0 / dy**2)


@dataclass(frozen=True)
class ShallowWaterDynamics:
    """Tendency operator for the reduced-gravity layer.

    Parameters
    ----------
    grid:
        Ocean grid (mask defines the coastline; velocity is zero on land).
    h0:
        Rest thickness of the active layer (m).
    g_reduced:
        Reduced gravity g' = g * (delta rho / rho) (m/s^2).
    viscosity:
        Laplacian eddy viscosity (m^2/s).
    bottom_drag:
        Linear (Rayleigh) drag coefficient (1/s).
    eta_diffusivity:
        Interface-height diffusivity (m^2/s).  A collocated (A-) grid
        supports a 2-grid-point checkerboard mode in ``eta`` that the
        pressure gradient cannot see; this scale-selective smoothing damps
        it (the standard A-grid remedy) without affecting the mesoscale.

    Everything precomputed below is an immutable constant: one instance is
    shared by pool threads, so no step may keep scratch arrays on it.
    """

    grid: OceanGrid
    h0: float = 150.0
    g_reduced: float = 0.03
    viscosity: float = 120.0
    bottom_drag: float = 2.0e-6
    eta_diffusivity: float = 150.0

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("layer thickness h0 must be positive")
        if self.g_reduced <= 0:
            raise ValueError("reduced gravity must be positive")
        if self.viscosity < 0 or self.bottom_drag < 0:
            raise ValueError("viscosity and drag must be non-negative")
        grid, mask = self.grid, self.grid.mask
        # Coastal land-fill: eta gets a zero-gradient (free-slip wall)
        # condition before gradient/diffusion stencils (see masking.py).
        object.__setattr__(self, "fill_land", LandFiller(mask))
        object.__setattr__(self, "_wet", mask.astype(float))
        object.__setattr__(self, "_wx", rim_weights(grid.nx, grid.dx))
        object.__setattr__(self, "_wy", rim_weights(grid.ny, grid.dy)[:, None])
        object.__setattr__(self, "_coriolis", grid.coriolis)
        # Open (wet-wet) cell faces, used by the finite-volume continuity
        # fluxes: a face is open only when both adjacent cells are ocean,
        # which makes the coastline an exact no-flux wall and the scheme
        # exactly volume-conserving.  The factors carry the 1/2 of the
        # face mean (or the diffusivity) and the 1/dx of the divergence.
        face_x = mask[:, :-1] & mask[:, 1:]
        face_y = mask[:-1, :] & mask[1:, :]
        kappa = self.eta_diffusivity
        object.__setattr__(self, "_face_x", face_x * (0.5 / grid.dx))
        object.__setattr__(self, "_face_y", face_y * (0.5 / grid.dy))
        object.__setattr__(self, "_diff_x", face_x * (kappa / grid.dx**2))
        object.__setattr__(self, "_diff_y", face_y * (kappa / grid.dy**2))

    def _continuity_tendency(
        self, h: np.ndarray, u: np.ndarray, v: np.ndarray, eta_filled: np.ndarray
    ) -> np.ndarray:
        """deta/dt from finite-volume mass fluxes plus conservative diffusion.

        Face transports use the mean of the two adjacent cells and vanish on
        coast faces, so the sum of ``deta/dt`` over wet cells is exactly
        zero: total layer volume is conserved to round-off (the paper's PE
        model shares this property; it matters for multi-week ESSE runs).
        Land cells have no open face, so they come out exactly zero.
        """
        hu, hv = h * u, h * v
        ny, nx = h.shape[-2:]
        # Face transports over the cell width, the two closed array ends
        # included as explicit zeros, so that deta = inflow - outflow.
        flux_x = np.zeros((*h.shape[:-2], ny, nx + 1))
        inner = flux_x[..., :, 1:-1]
        np.add(hu[..., :, :-1], hu[..., :, 1:], out=inner)
        inner *= self._face_x
        # Conservative interface-height diffusion on the same faces.
        slope = eta_filled[..., :, 1:] - eta_filled[..., :, :-1]
        slope *= self._diff_x
        inner -= slope
        flux_y = np.zeros((*h.shape[:-2], ny + 1, nx))
        inner = flux_y[..., 1:-1, :]
        np.add(hv[..., :-1, :], hv[..., 1:, :], out=inner)
        inner *= self._face_y
        slope = eta_filled[..., 1:, :] - eta_filled[..., :-1, :]
        slope *= self._diff_y
        inner -= slope
        deta = flux_x[..., :, :-1] - flux_x[..., :, 1:]
        deta -= flux_y[..., 1:, :]
        deta += flux_y[..., :-1, :]
        return deta

    @property
    def gravity_wave_speed(self) -> float:
        """Internal gravity-wave speed sqrt(g' h0), m/s."""
        return float(np.sqrt(self.g_reduced * self.h0))

    def max_stable_dt(self, safety: float = 0.5) -> float:
        """CFL-limited time step (s) for the gravity-wave speed."""
        dmin = min(self.grid.dx, self.grid.dy)
        return safety * dmin / self.gravity_wave_speed

    def step_dynamics(
        self,
        u: np.ndarray,
        v: np.ndarray,
        eta: np.ndarray,
        tau_x: np.ndarray,
        tau_y: np.ndarray,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance (u, v, eta) one step of ``dt`` seconds.

        All fields may carry arbitrary leading batch dimensions ahead of
        the trailing ``(ny, nx)`` axes -- a whole ``(N, ny, nx)`` ensemble
        steps in one call, and every operator (stencils, masks, sponge)
        broadcasts over the batch axis bit-identically to stepping the
        members one at a time (the vectorized engine relies on this).

        The scheme is the standard stable combination for shallow-water
        dynamics on a collocated grid:

        - *forward-backward* (Mesinger) gravity-wave coupling -- eta is
          stepped first, the pressure gradient then uses the *new* eta,
          which is neutral for Courant numbers below 1 (here ~0.3);
        - *exact semi-implicit rotation* for the Coriolis terms, which is
          unconditionally stable and energy-neutral;
        - forward (explicit) advection, viscosity, drag and wind, whose
          weak explicit instability is dominated by the Laplacian damping.

        Returns
        -------
        u, v, eta, deta_dt:
            Updated fields plus the interface tendency actually applied
            (m/s), which drives thermocline heave in the tracers.
        """
        h = np.maximum(self.h0 + eta, 0.1 * self.h0)  # guard against outcrop
        halo, uv = halo_buffer((*u.shape[:-2], 2, *u.shape[-2:]))
        uv[..., 0, :, :] = u
        uv[..., 1, :, :] = v
        replicate_rim(halo)

        # 1. continuity, forward step: exact finite-volume fluxes
        deta_dt = self._continuity_tendency(h, u, v, self.fill_land(eta))
        eta_new = deta_dt * dt
        eta_new += eta

        # 2. momentum: explicit advection/viscosity/drag/wind, backward
        #    pressure gradient from the (land-filled) new interface height
        eta_halo = with_halo(eta_new, fill=self.fill_land)
        loss = halo_ddx(halo, self._wx)  # advection + pressure + drag
        loss *= u[..., None, :, :]
        term = halo_ddy(halo, self._wy)
        term *= v[..., None, :, :]
        loss += term
        halo_ddx(eta_halo, self._wx, out=term[..., 0, :, :])
        halo_ddy(eta_halo, self._wy, out=term[..., 1, :, :])
        term *= self.g_reduced
        loss += term
        np.multiply(uv, self.bottom_drag, out=term)
        loss += term
        cx, cy = self.viscosity / self.grid.dx**2, self.viscosity / self.grid.dy**2
        duv = halo_laplacian(halo, cx, cy)
        duv -= loss
        rho_h = RHO0 * h
        np.divide(tau_x, rho_h, out=term[..., 0, :, :])
        np.divide(tau_y, rho_h, out=term[..., 1, :, :])
        duv += term
        duv *= self._wet * dt
        duv += uv  # (u*, v*)

        # 3. Coriolis: exact inertial rotation of (u*, v*)
        angle = self._coriolis * dt
        uv_new = duv * math.cos(angle)
        np.multiply(duv, math.sin(angle), out=term)
        uv_new[..., 0, :, :] += term[..., 1, :, :]
        uv_new[..., 1, :, :] -= term[..., 0, :, :]
        return uv_new[..., 0, :, :], uv_new[..., 1, :, :], eta_new, deta_dt

    def sponge_factors(self, dt: float, width: int = 5, tau_edge: float = 10800.0) -> np.ndarray:
        """Per-step damping factors of a smooth open-boundary sponge.

        A cosine-shaped relaxation toward rest over ``width`` cells at the
        west/south/north rims (the east rim is coast).  The relaxation time
        grows from ``tau_edge`` at the outermost cell to infinity at the
        sponge's inner edge; abrupt damping would itself create reflections
        and destabilize the pressure gradient, so the profile must be smooth.
        """
        ny, nx = self.grid.shape2d
        strength = np.zeros((ny, nx))

        ramp = 0.5 * (1.0 + np.cos(np.pi * np.arange(width) / width))
        for k in range(min(width, nx)):
            strength[:, k] = np.maximum(strength[:, k], ramp[k])
        for k in range(min(width, ny)):
            strength[k, :] = np.maximum(strength[k, :], ramp[k])
            strength[ny - 1 - k, :] = np.maximum(strength[ny - 1 - k, :], ramp[k])
        return np.exp(-dt * strength / tau_edge)

    def enforce_boundaries(
        self,
        u: np.ndarray,
        v: np.ndarray,
        eta: np.ndarray,
        sponge: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero fields on land and apply the open-boundary sponge.

        ``sponge`` is the precomputed factor field from
        :meth:`sponge_factors`; passing None skips the sponge (used by
        process-level tests).
        """
        damp = self._wet if sponge is None else self._wet * sponge
        return u * damp, v * damp, eta * damp
