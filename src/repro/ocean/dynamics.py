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
stencil, so a step is a short sequence of whole-array NumPy passes, each
into a buffer of the run's step workspace.  On one core of a 2-vCPU VM (one BLAS thread, process time,
best of seven) the dynamics of one state on the default 42x36 AOSN-II
grid take 0.14-0.20 ms and a step of a run with the ten-level tracer stack
0.56-0.83 ms, over three runs in a slow phase of the shared host in which
the code before the workspace read 0.22 ms and 1.0-1.5 ms.  On the
benchmark's 32x28x4 grid a noisy member costs 0.51 ms per step alone and
0.41 ms in a batch of four, its perturbation included
(``ocean.member_step_us`` and ``ocean.batched_member_step_us`` of the
suite record quoted in EXPERIMENTS.md, "One step workspace per ocean
run").  With the coastal fill as flat gathers (two fills per step, not
three) and the rims as two strided copies, a quiet single-state step
there takes 183 us against 204 us before (best of 40 runs of 216 steps,
the two versions alternating in one process on one core).  That is what
makes O(1000)-member ensembles tractable on one machine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.ocean.grid import OceanGrid
from repro.ocean.masking import LandFiller

#: Open-boundary sponge: width in cells and relaxation time (s) at the rim.
SPONGE_WIDTH = 5
SPONGE_TAU_EDGE = 10800.0

RHO0 = 1025.0  # reference sea-water density, kg/m^3

#: The active layer: rest thickness (m) and reduced gravity g' = g
#: (delta rho / rho) (m/s^2).
H0 = 150.0
G_REDUCED = 0.03
#: Laplacian eddy viscosity (m^2/s) and linear (Rayleigh) bottom drag (1/s).
VISCOSITY = 120.0
BOTTOM_DRAG = 2.0e-6
#: Interface-height diffusivity (m^2/s).  A collocated (A-) grid supports a
#: 2-grid-point checkerboard mode in ``eta`` that the pressure gradient
#: cannot see; this scale-selective smoothing damps it (the standard A-grid
#: remedy) without affecting the mesoscale.
ETA_DIFFUSIVITY = 150.0


# -- halo stencils -------------------------------------------------------------
# A halo array is a field with one extra cell all round that repeats the
# outermost row / column (a ghost-cell layout).  Centred differences over it
# are the one-sided edge differences, given rim_weights, and the Laplacian
# sees zero flux, so no stencil needs an edge case.


def halo_buffer(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised halo array for fields of ``shape``, and its interior view."""
    halo = np.empty((*shape[:-2], shape[-2] + 2, shape[-1] + 2))
    return halo, halo[..., 1:-1, 1:-1]


def rim_pairs(halo: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(rim, source) views: both rim rows, then both whole rim columns, of ``halo``.

    Each is one strided copy from the outermost interior rows / columns;
    a grid of at least 4 x 4 cells keeps the sources' stride at 3 or more.
    """
    rows, cols = halo.shape[-2] - 1, halo.shape[-1] - 1
    return (
        (halo[..., ::rows, 1:-1], halo[..., 1 :: rows - 2, 1:-1]),
        (halo[..., ::cols], halo[..., 1 :: cols - 2]),
    )


def replicate_rim(pairs: tuple[tuple[np.ndarray, np.ndarray], ...]) -> None:
    """Copy each source of :func:`rim_pairs` into its rim, in order."""
    for rim, source in pairs:
        np.copyto(rim, source)


def neighbours(halo: np.ndarray) -> tuple[np.ndarray, ...]:
    """East, west, north and south neighbours of a halo array's interior cells."""
    rows, cols = halo[..., 1:-1, :], halo[..., :, 1:-1]
    return rows[..., 2:], rows[..., :-2], cols[..., 2:, :], cols[..., :-2, :]


class SharedBlock:
    """One float64 block that the step's operators take turns on.

    Each :meth:`take` lays its views out from the start of the block: one
    run never has two operators in flight, so the buffers that live only
    inside one call share memory.  A larger request gets a block of its own.
    """

    def __init__(self):
        self._block = np.empty(0)

    def take(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """Disjoint views of the given shapes, laid out one after another."""
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) > self._block.size:
            self._block = np.empty(sum(sizes))
        ends = itertools.accumulate(sizes)
        return [
            self._block[end - size : end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)
        ]


def with_halo(fld: np.ndarray) -> np.ndarray:
    """Halo copy of ``fld`` (any leading axes)."""
    halo, interior = halo_buffer(np.shape(fld))
    interior[...] = fld
    replicate_rim(rim_pairs(halo))
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

    The layer's physics are the module constants ``H0``, ``G_REDUCED``,
    ``VISCOSITY``, ``BOTTOM_DRAG`` and ``ETA_DIFFUSIVITY``.  Everything precomputed below is an immutable constant: one instance is
    shared by pool threads, so no step may keep scratch arrays on it.
    """

    grid: OceanGrid

    def __post_init__(self):
        grid, mask = self.grid, self.grid.mask
        # Coastal land-fill: eta gets a zero-gradient (free-slip wall)
        # condition before gradient/diffusion stencils (see masking.py).
        object.__setattr__(self, "fill_land", LandFiller(mask))
        object.__setattr__(self, "_wet", mask.astype(float))
        wx, wy = rim_weights(grid.nx, grid.dx), rim_weights(grid.ny, grid.dy)[:, None]
        cx, cy = VISCOSITY / grid.dx**2, VISCOSITY / grid.dy**2
        # The momentum stencil: (a_E, a_W, a_N, a_S) = (cx -/+ u wx, cy -/+ v wy)
        # as one product with the rows (1, u wx, v wy); the viscosity's
        # 2 (cx + cy) plus the bottom drag on the centre.  Then the
        # pressure-gradient weights.
        object.__setattr__(self, "_wx", np.broadcast_to(wx, grid.shape2d))
        object.__setattr__(self, "_wy", np.broadcast_to(wy, grid.shape2d))
        coef = [[cx, -1.0, 0.0], [cx, 1.0, 0.0], [cy, 0.0, -1.0], [cy, 0.0, 1.0]]
        object.__setattr__(self, "_coef", np.array(coef))
        object.__setattr__(self, "_a_centre", 2.0 * (cx + cy) + BOTTOM_DRAG)
        object.__setattr__(self, "_gwx", G_REDUCED * wx)
        object.__setattr__(self, "_gwy", G_REDUCED * wy)
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
        kappa = ETA_DIFFUSIVITY
        object.__setattr__(self, "_face_x", face_x * (0.5 / grid.dx))
        object.__setattr__(self, "_face_y", face_y * (0.5 / grid.dy))
        object.__setattr__(self, "_diff_x", face_x * (kappa / grid.dx**2))
        object.__setattr__(self, "_diff_y", face_y * (kappa / grid.dy**2))

    def _continuity_tendency(
        self, h: np.ndarray, u: np.ndarray, v: np.ndarray, w: SimpleNamespace
    ) -> None:
        """deta/dt from finite-volume mass fluxes plus conservative diffusion.

        Face transports use the mean of the two adjacent cells and vanish on
        coast faces, and each face's flux is computed once, so the sum of
        ``deta/dt`` over wet cells is exactly zero: total layer volume is
        conserved to round-off (the paper's PE model shares this property;
        it matters for multi-week ESSE runs).  Land cells have no open face,
        so they come out exactly zero.  ``eta`` is in ``w.eta`` unfilled:
        the diffusion factors ``_diff_x`` / ``_diff_y`` are zero on every
        face that touches land, so no finite land value reaches the
        result, ``w.deta_dt``.
        """
        np.multiply(h, u, out=w.hu)
        np.multiply(h, v, out=w.hv)
        # Transports through the faces over the cell width, less the
        # interface-height diffusion through the same faces.
        for flux, slope, hu, eta, face, diff in (
            (w.flux_x, w.slope_x, w.hu_x, w.eta_x, self._face_x, self._diff_x),
            (w.flux_y, w.slope_y, w.hv_y, w.eta_y, self._face_y, self._diff_y),
        ):
            np.add(*hu, out=flux)
            flux *= face
            np.subtract(eta[1], eta[0], out=slope)
            slope *= diff
            flux -= slope
        # deta = inflow - outflow; the closed array ends carry no flux.
        (west, east), (south, north) = w.deta_x, w.deta_y
        w.deta_0[...] = 0.0
        np.copyto(east, w.flux_x)
        west -= w.flux_x
        south -= w.flux_y
        north += w.flux_y

    @property
    def gravity_wave_speed(self) -> float:
        """Internal gravity-wave speed sqrt(g' h0), m/s."""
        return float(np.sqrt(G_REDUCED * H0))

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
        work: SimpleNamespace,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance (u, v, eta) one step of ``step.dt`` seconds.

        ``step`` is :meth:`step_constants` of the step length, which a model
        builds once rather than on every step.  ``work`` is a
        :meth:`workspace` for the fields' leading shape.

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
            (m/s), which drives thermocline heave in the tracers: views of
            ``work``, overwritten by its next step.
        """
        w = work
        h = np.add(eta, H0, out=w.h)
        np.maximum(h, 0.1 * H0, out=h)  # guard against outcrop
        np.copyto(w.u, u)
        np.copyto(w.v, v)
        replicate_rim(w.uv_rim)

        # 1. continuity, forward step: exact finite-volume fluxes
        np.copyto(w.eta, eta)
        self._continuity_tendency(h, u, v, w)
        eta_new = np.multiply(w.deta_dt, step.dt, out=w.eta_new)
        eta_new += eta

        # 2. momentum: one five-point stencil for u and v -- advection by
        #    (u, v), viscosity and drag -- whose coefficients both share:
        #    a_E/W = cx -/+ u wx, a_N/S = cy -/+ v wy, a_C = 2 (cx + cy) + r
        np.multiply(u, self._wx, out=w.u_wx)
        np.multiply(v, self._wy, out=w.v_wy)
        np.matmul(self._coef, w.rows, out=w.coef)
        duv, term = w.duv, w.term
        (east, a_e), (west, a_w), (north, a_n), (south, a_s) = w.stencil
        np.multiply(east, a_e, out=duv)
        np.multiply(west, a_w, out=term)
        duv += term
        np.multiply(north, a_n, out=term)
        duv += term
        np.multiply(south, a_s, out=term)
        duv += term
        np.multiply(w.uv, self._a_centre, out=term)
        duv -= term
        #    backward pressure gradient from the (land-filled) new interface
        #    height, and the wind, per component
        np.copyto(w.eta_halo, eta_new)
        w.fill_eta()
        replicate_rim(w.eta_rim)
        east, west, north, south = w.eta_near
        grad_x, grad_y = w.term_uv
        np.subtract(east, west, out=grad_x)
        grad_x *= self._gwx
        np.subtract(north, south, out=grad_y)
        grad_y *= self._gwy
        duv -= term
        rho_h = np.multiply(h, RHO0, out=h)
        np.divide(tau_x, rho_h, out=grad_x)
        np.divide(tau_y, rho_h, out=grad_y)
        duv += term
        duv *= step.wet_dt
        duv += w.uv  # (u*, v*)

        # 3. Coriolis: exact inertial rotation of (u*, v*)
        np.multiply(duv, step.cos, out=w.uv_new)
        duv *= step.sin
        (u_new, v_new), (du, dv) = w.uv_new_parts, w.duv_parts
        u_new += dv
        v_new -= du
        return u_new, v_new, eta_new, w.deta_dt

    def workspace(self, lead: tuple[int, ...], shared: SharedBlock) -> SimpleNamespace:
        """The buffers and views of :meth:`step_dynamics` for ``lead``-led fields.

        A run builds one and hands it to every step; the operator is shared
        by pool threads, so it never keeps one.  What a step returns are
        views of it, overwritten by the next step.  The buffers that live
        only inside a step come from ``shared`` (see :class:`SharedBlock`).
        """
        ny, nx = self.grid.shape2d
        cells, field, pair = ny * nx, (*lead, ny, nx), (*lead, 2, ny, nx)
        halo, pair_halo = (*lead, ny + 2, nx + 2), (*lead, 2, ny + 2, nx + 2)
        faces_x, faces_y = (*lead, cells - 1), (*lead, cells - nx)
        w = SimpleNamespace()
        (
            w.h, w.eta, w.hu, w.hv, w.flux_x, w.slope_x, w.flux_y, w.slope_y,
            uv_halo, coef, w.duv, w.term, eta_halo,
        ) = shared.take(
            field, field, field, field, faces_x, faces_x, faces_y, faces_y,
            pair_halo, (*lead, 4, 1, ny, nx), pair, pair, halo,
        )
        w.eta_new, w.deta_dt = np.empty(field), np.empty(field)
        w.uv_new = np.empty(pair)
        # The continuity on the flattened grid: x faces pair cells 1 apart,
        # y faces cells nx apart.
        hu, hv = w.hu.reshape(*lead, cells), w.hv.reshape(*lead, cells)
        eta, deta = w.eta.reshape(*lead, cells), w.deta_dt.reshape(*lead, cells)
        w.hu_x, w.eta_x, w.deta_x = [(a[..., :-1], a[..., 1:]) for a in (hu, eta, deta)]
        w.hv_y, w.eta_y, w.deta_y = [(a[..., :-nx], a[..., nx:]) for a in (hv, eta, deta)]
        w.deta_0 = deta[..., 0]
        w.uv = uv_halo[..., 1:-1, 1:-1]
        w.u, w.v = w.uv[..., 0, :, :], w.uv[..., 1, :, :]
        w.uv_rim = rim_pairs(uv_halo)
        # The momentum rows (1, u wx, v wy), whose first row never changes,
        # and the coefficients (a_E, a_W, a_N, a_S) they make, each beside
        # the neighbour it weighs.
        rows = np.empty((*lead, 3, ny, nx))
        rows[..., 0, :, :] = 1.0
        w.u_wx, w.v_wy = rows[..., 1, :, :], rows[..., 2, :, :]
        w.rows = rows.reshape(*lead, 3, cells)
        w.coef = coef.reshape(*lead, 4, cells)
        w.stencil = tuple(
            (near, coef[..., k, :, :, :]) for k, near in enumerate(neighbours(uv_halo))
        )
        w.duv_parts, w.term_uv, w.uv_new_parts = (
            (a[..., 0, :, :], a[..., 1, :, :]) for a in (w.duv, w.term, w.uv_new)
        )
        w.eta_halo = eta_halo[..., 1:-1, 1:-1]
        w.fill_eta = self.fill_land.bind(eta_halo)
        w.eta_rim, w.eta_near = rim_pairs(eta_halo), neighbours(eta_halo)
        return w

    def step_constants(self, dt: float, sponge: np.ndarray) -> StepConstants:
        """The constants of a step of ``dt`` seconds (see :class:`StepConstants`).

        ``sponge`` is the factor field of :meth:`sponge_factors`.
        """
        angle = self.grid.coriolis * dt
        damp = self._wet * sponge
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
        step: StepConstants,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero fields on land and apply the open-boundary sponge.

        ``step`` is :meth:`step_constants`, whose ``damp`` holds the land
        mask times the sponge factors.
        """
        return u * step.damp, v * step.damp, eta * step.damp
