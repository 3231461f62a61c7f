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
edge-replicated halo copy of its field, and each field group (u and v
here, T and S in :mod:`repro.ocean.tracers`) is one five-point coefficient
stencil, so a step is a short sequence of whole-array NumPy passes.  On
one core of a 2-vCPU VM (one BLAS thread) the dynamics of one state on
the default 42x36 AOSN-II grid take about 0.13 ms and the whole step with
the ten-level tracer stack about 0.5 ms; on the benchmark's 32x28x4 grid
a noisy member costs 0.50 ms per step alone and 0.32 ms in a batch of four,
its perturbation included (``ocean.member_step_us`` and
``ocean.batched_member_step_us`` of the suite record quoted in
EXPERIMENTS.md, "The ocean step as five-point coefficient stencils").
That is what makes O(1000)-member ensembles tractable on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.ocean.grid import OceanGrid
from repro.ocean.masking import LandFiller

#: Open-boundary sponge: width in cells and relaxation time (s) at the rim.
SPONGE_WIDTH = 5
SPONGE_TAU_EDGE = 10800.0

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


def halo_runs(halo: np.ndarray, axes: int) -> tuple[np.ndarray, ...]:
    """Centre, east, west, north and south runs of a halo array.

    The trailing ``axes`` axes of ``halo`` (rows and columns of the halo
    grid last) are flattened.  The centre run starts one halo row (``W``
    cells) in and is ``2 W`` cells shorter than the flat buffer; the others
    are the same run shifted by ``+-1`` and ``+-W`` cells, the neighbours
    of each of its cells.  A five-point stencil over the runs is a few
    whole-buffer passes without row strides.  Its results on rim cells (the
    rim columns, and on a level stack the rim rows between levels) are
    junk; the interior is exact.
    """
    width = halo.shape[-1]
    flat = halo.reshape(*halo.shape[:-axes], -1)
    size = flat.shape[-1] - 2 * width
    return tuple(
        flat[..., start : start + size]
        for start in (width, width + 1, width - 1, 2 * width, 0)
    )


def halo_run(halo: np.ndarray, axes: int) -> np.ndarray:
    """The centre run of :func:`halo_runs`."""
    width = halo.shape[-1]
    flat = halo.reshape(*halo.shape[:-axes], -1)
    return flat[..., width : flat.shape[-1] - width]


def zero_rim(fld: np.ndarray) -> np.ndarray:
    """Halo copy of ``fld`` whose rim is zero (for constant coefficients)."""
    halo, interior = halo_buffer(np.shape(fld))
    halo[...] = 0.0
    interior[...] = fld
    return halo


def ddx(fld: np.ndarray, dx: float) -> np.ndarray:
    """Centred x-derivative with one-sided differences at the edges."""
    halo = with_halo(fld)
    out = halo[..., 1:-1, 2:] - halo[..., 1:-1, :-2]
    out *= rim_weights(np.shape(fld)[-1], dx)
    return out


def ddy(fld: np.ndarray, dy: float) -> np.ndarray:
    """Centred y-derivative with one-sided differences at the edges."""
    halo = with_halo(fld)
    out = halo[..., 2:, 1:-1] - halo[..., :-2, 1:-1]
    out *= rim_weights(np.shape(fld)[-2], dy)[:, None]
    return out


def laplacian(fld: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Five-point Laplacian; zero-flux (Neumann) at the array edges."""
    halo = with_halo(fld)
    cx, cy = 1.0 / dx**2, 1.0 / dy**2
    lap = halo[..., 1:-1, 2:] + halo[..., 1:-1, :-2]
    lap *= cx
    term = halo[..., 2:, 1:-1] + halo[..., :-2, 1:-1]
    term *= cy
    lap += term
    np.multiply(halo[..., 1:-1, 1:-1], 2.0 * (cx + cy), out=term)
    lap -= term
    return lap


class StepConstants(NamedTuple):
    """What a step of one length needs beyond the operator's own constants.

    Built once per model by :meth:`ShallowWaterDynamics.step_constants`;
    read-only, so pool threads may share it.
    """

    dt: float
    wet_dt: np.ndarray  # the land mask times dt
    cos: float  # the inertial rotation over dt
    sin: float
    damp: np.ndarray  # the land mask times the open-boundary sponge


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
        wx, wy = rim_weights(grid.nx, grid.dx), rim_weights(grid.ny, grid.dy)[:, None]
        cx, cy = self.viscosity / grid.dx**2, self.viscosity / grid.dy**2
        # The momentum stencil: (a_E, a_W, a_N, a_S) = (cx -/+ u wx, cy -/+ v wy)
        # as one product with the rows (1, u wx, v wy); the viscosity's
        # 2 (cx + cy) plus the bottom drag on the centre.  Then the
        # pressure-gradient weights.
        object.__setattr__(self, "_wx", np.broadcast_to(wx, grid.shape2d))
        object.__setattr__(self, "_wy", np.broadcast_to(wy, grid.shape2d))
        coef = [[cx, -1.0, 0.0], [cx, 1.0, 0.0], [cy, 0.0, -1.0], [cy, 0.0, 1.0]]
        object.__setattr__(self, "_coef", np.array(coef))
        object.__setattr__(self, "_a_centre", 2.0 * (cx + cy) + self.bottom_drag)
        object.__setattr__(self, "_gwx", self.g_reduced * wx)
        object.__setattr__(self, "_gwy", self.g_reduced * wy)
        shape = grid.shape2d
        # Open (wet-wet) cell faces, used by the finite-volume continuity
        # fluxes: a face is open only when both adjacent cells are ocean,
        # which makes the coastline an exact no-flux wall and the scheme
        # exactly volume-conserving.  The factors carry the 1/2 of the
        # face mean (or the diffusivity) and the 1/dx of the divergence.
        # On the row-major flattened grid the x faces are the pairs of
        # neighbouring cells, row ends included (those "faces" are closed),
        # so every shift is one contiguous slice.
        face_x = np.zeros(shape)
        face_x[:, :-1] = mask[:, :-1] & mask[:, 1:]
        face_x = face_x.reshape(-1)[:-1]
        face_y = (mask[:-1, :] & mask[1:, :]).reshape(-1)
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
        coast faces, and each face's flux is computed once, so the sum of
        ``deta/dt`` over wet cells is exactly zero: total layer volume is
        conserved to round-off (the paper's PE model shares this property;
        it matters for multi-week ESSE runs).  Land cells have no open face,
        so they come out exactly zero.
        """
        lead, nx = h.shape[:-2], h.shape[-1]
        hu, hv = h * u, h * v
        hu, hv = hu.reshape(*lead, -1), hv.reshape(*lead, -1)
        eta_filled = eta_filled.reshape(*lead, -1)
        # Transports through the faces over the cell width, less the
        # interface-height diffusion through the same faces.
        flux_x = hu[..., :-1] + hu[..., 1:]
        flux_x *= self._face_x
        slope = eta_filled[..., 1:] - eta_filled[..., :-1]
        slope *= self._diff_x
        flux_x -= slope
        flux_y = hv[..., :-nx] + hv[..., nx:]
        flux_y *= self._face_y
        slope = eta_filled[..., nx:] - eta_filled[..., :-nx]
        slope *= self._diff_y
        flux_y -= slope
        # deta = inflow - outflow; the closed array ends carry no flux.
        deta = np.empty(hu.shape)
        deta[..., 0] = 0.0
        deta[..., 1:] = flux_x
        deta[..., :-1] -= flux_x
        deta[..., :-nx] -= flux_y
        deta[..., nx:] += flux_y
        return deta.reshape(h.shape)

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
        step: StepConstants,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance (u, v, eta) one step of ``step.dt`` seconds.

        ``step`` is :meth:`step_constants` of the step length, which a model
        builds once rather than on every step.

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
        eta_new = deta_dt * step.dt
        eta_new += eta

        # 2. momentum: one five-point stencil for u and v -- advection by
        #    (u, v), viscosity and drag -- whose coefficients both share:
        #    a_E/W = cx -/+ u wx, a_N/S = cy -/+ v wy, a_C = 2 (cx + cy) + r
        lead = u.shape[:-2]
        rows = np.empty((*lead, 3, *u.shape[-2:]))
        rows[..., 0, :, :] = 1.0
        np.multiply(u, self._wx, out=rows[..., 1, :, :])
        np.multiply(v, self._wy, out=rows[..., 2, :, :])
        coef = np.matmul(self._coef, rows.reshape(*lead, 3, -1))
        coef = coef.reshape(*lead, 4, 1, *u.shape[-2:])
        duv = halo[..., 1:-1, 2:] * coef[..., 0, :, :, :]
        term = halo[..., 1:-1, :-2] * coef[..., 1, :, :, :]
        duv += term
        np.multiply(halo[..., 2:, 1:-1], coef[..., 2, :, :, :], out=term)
        duv += term
        np.multiply(halo[..., :-2, 1:-1], coef[..., 3, :, :, :], out=term)
        duv += term
        np.multiply(uv, self._a_centre, out=term)
        duv -= term
        #    backward pressure gradient from the (land-filled) new interface
        #    height, and the wind, per component
        eta_halo = with_halo(eta_new, fill=self.fill_land)
        grad = term[..., 0, :, :]
        np.subtract(eta_halo[..., 1:-1, 2:], eta_halo[..., 1:-1, :-2], out=grad)
        grad *= self._gwx
        grad = term[..., 1, :, :]
        np.subtract(eta_halo[..., 2:, 1:-1], eta_halo[..., :-2, 1:-1], out=grad)
        grad *= self._gwy
        duv -= term
        rho_h = RHO0 * h
        np.divide(tau_x, rho_h, out=term[..., 0, :, :])
        np.divide(tau_y, rho_h, out=term[..., 1, :, :])
        duv += term
        duv *= step.wet_dt
        duv += uv  # (u*, v*)

        # 3. Coriolis: exact inertial rotation of (u*, v*)
        uv_new = duv * step.cos
        duv *= step.sin
        uv_new[..., 0, :, :] += duv[..., 1, :, :]
        uv_new[..., 1, :, :] -= duv[..., 0, :, :]
        return uv_new[..., 0, :, :], uv_new[..., 1, :, :], eta_new, deta_dt

    def step_constants(
        self, dt: float, sponge: np.ndarray | None = None
    ) -> StepConstants:
        """The constants of a step of ``dt`` seconds (see :class:`StepConstants`).

        ``sponge`` is the factor field of :meth:`sponge_factors`; None
        zeroes land only.
        """
        angle = self.grid.coriolis * dt
        damp = self._wet if sponge is None else self._wet * sponge
        return StepConstants(dt, self._wet * dt, math.cos(angle), math.sin(angle), damp)

    def sponge_factors(self, dt: float) -> np.ndarray:
        """Per-step damping factors of a smooth open-boundary sponge.

        A cosine-shaped relaxation toward rest over ``SPONGE_WIDTH`` cells at
        the west/south/north rims (the east rim is coast).  The relaxation
        time grows from ``SPONGE_TAU_EDGE`` at the outermost cell to infinity at the
        sponge's inner edge; abrupt damping would itself create reflections
        and destabilize the pressure gradient, so the profile must be smooth.
        """
        ny, nx = self.grid.shape2d
        strength = np.zeros((ny, nx))

        width = SPONGE_WIDTH
        ramp = 0.5 * (1.0 + np.cos(np.pi * np.arange(width) / width))
        for k in range(min(width, nx)):
            strength[:, k] = np.maximum(strength[:, k], ramp[k])
        for k in range(min(width, ny)):
            strength[k, :] = np.maximum(strength[k, :], ramp[k])
            strength[ny - 1 - k, :] = np.maximum(strength[ny - 1 - k, :], ramp[k])
        return np.exp(-dt * strength / SPONGE_TAU_EDGE)

    def enforce_boundaries(
        self,
        u: np.ndarray,
        v: np.ndarray,
        eta: np.ndarray,
        step: StepConstants | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero fields on land and apply the open-boundary sponge.

        ``step`` is :meth:`step_constants`, whose ``damp`` holds the land
        mask times the sponge factors; None zeroes land only (used by
        process-level tests).
        """
        damp = self._wet if step is None else step.damp
        return u * damp, v * damp, eta * damp
