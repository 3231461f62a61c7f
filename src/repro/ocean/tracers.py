"""Temperature / salinity tracer dynamics.

Tracers live on ``nz`` depth levels.  Each level is advected by the layer
velocity scaled with a depth-structure function (surface-intensified flow),
diffused laterally, relaxed weakly toward climatology, heated at the
surface, and heaved vertically by interface displacements: a negative
``eta`` (thermocline uplift, i.e. upwelling) lifts cold water, exactly the
signal that dominates Monterey Bay SST and its ESSE uncertainty (paper
Figs 5-6).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.ocean.dynamics import (
    halo_run,
    halo_runs,
    SharedBlock,
    replicate_rim,
    rim_pairs,
    rim_weights,
    zero_rim,
)
from repro.ocean.grid import OceanGrid
from repro.ocean.masking import LandFiller


#: Central California background profile: a tanh thermocline between the
#: surface and deep temperatures (deg C), centred at ``THERMOCLINE_DEPTH``
#: with half-width ``THERMOCLINE_WIDTH`` (m); salinity (psu) follows the
#: same shape, increasing monotonically with depth.
SURFACE_TEMP = 15.0
DEEP_TEMP = 7.0
THERMOCLINE_DEPTH = 60.0
THERMOCLINE_WIDTH = 45.0
SURFACE_SALT = 33.4
DEEP_SALT = 34.2

#: Lateral eddy diffusivity of T and S (m^2/s).
DIFFUSIVITY = 60.0
#: e-folding time (s) of the relaxation toward climatology; weak, it keeps
#: the twin-experiment fields bounded over weeks.
RELAXATION_TIME = 30.0 * 86400.0
#: e-folding depth (m) of the velocity structure function.
VELOCITY_DECAY_DEPTH = 120.0
#: deg C of temperature change per metre of interface displacement per unit
#: of the vertical structure function (thermocline-heave coupling).
HEAVE_GAIN = 0.02
#: Effective mixed-layer depth (m) converting surface heat flux to a
#: surface-level temperature tendency.
HEAT_CAPACITY_DEPTH = 25.0


def climatological_profile(
    z_levels: np.ndarray | tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Background (T(z), S(z)) profiles for central California at ``z_levels``."""
    z = np.asarray(z_levels, dtype=float)
    shape_fn = 0.5 * (1.0 + np.tanh((z - THERMOCLINE_DEPTH) / THERMOCLINE_WIDTH))
    temp = SURFACE_TEMP + (DEEP_TEMP - SURFACE_TEMP) * shape_fn
    salt = SURFACE_SALT + (DEEP_SALT - SURFACE_SALT) * shape_fn
    return temp, salt


@dataclass
class TracerDynamics:
    """Tendency operator for the (T, S) tracer stack.

    Parameters
    ----------
    grid:
        Ocean grid.

    The physics are the module constants ``DIFFUSIVITY``,
    ``RELAXATION_TIME``, ``VELOCITY_DECAY_DEPTH``, ``HEAVE_GAIN`` and
    ``HEAT_CAPACITY_DEPTH``.
    """

    grid: OceanGrid

    def __post_init__(self):
        z = np.asarray(self.grid.z_levels)
        t_prof, s_prof = climatological_profile(z)
        self._vel_structure = np.exp(-z / VELOCITY_DECAY_DEPTH)[:, None, None]
        # Thermocline heave is strongest where dT/dz is largest.  Uplift
        # (deta/dt < 0) cools, depression warms: 3.5 deg C per unit of
        # gain x structure x displacement rate; upwelled water is saltier.
        dtdz = np.gradient(t_prof, z)
        norm = np.max(np.abs(dtdz))
        structure = (np.abs(dtdz) / norm) if norm > 0 else np.zeros_like(z)
        heave = np.array([3.5, -0.3])[:, None] * (HEAVE_GAIN * structure)
        # T and S step as one (2, nz, ny, nx) stack through one five-point
        # stencil whose per-level coefficients both share.  Every
        # coefficient carries the land mask, so the stencil is zero on land.
        # All of these are constants (shared across threads).
        grid = self.grid
        wet = grid.mask.astype(float)
        self._fill_land = LandFiller(np.broadcast_to(grid.mask, (2, *grid.shape3d)))
        # The per-level coefficients and the source terms are small matrix
        # products over the rows ``(v wy, 1, u wx, deta/dt, heat flux)`` of
        # one per-step buffer in the halo layout (land zero in every row):
        #   (a_N; a_S)_k = cy -/+ s_k v wy,  (a_E; a_W)_k = cx -/+ s_k u wx,
        #   source = clim / tau + heave x deta/dt + heat (top level of T).
        self._wx_wet = rim_weights(grid.nx, grid.dx) * wet
        self._wy_wet = rim_weights(grid.ny, grid.dy)[:, None] * wet
        self._wet_row = zero_rim(wet).reshape(-1)
        cx = DIFFUSIVITY / grid.dx**2
        cy = DIFFUSIVITY / grid.dy**2
        s = self._vel_structure[:, 0, 0]
        self._coef_y = np.stack([np.concatenate([-s, s]), np.full(2 * grid.nz, cy)], 1)
        self._coef_x = np.stack([np.full(2 * grid.nz, cx), np.concatenate([-s, s])], 1)
        clim = np.concatenate([t_prof, s_prof]) / RELAXATION_TIME
        heat = np.zeros(2 * grid.nz)
        heat[0] = 1.0 / (1025.0 * 3990.0 * HEAT_CAPACITY_DEPTH)
        self._source = np.stack([clim, np.zeros_like(clim), heave.ravel(), heat], 1)
        # The relaxation's -C/tau folded into the centre coefficient.
        centre = (2.0 * (cx + cy) + 1.0 / RELAXATION_TIME) * wet
        centre = zero_rim(np.broadcast_to(centre, grid.shape3d))
        self._a_centre = halo_run(centre, 3).copy()

    def tendencies(
        self,
        temp: np.ndarray,
        salt: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        deta_dt: np.ndarray,
        work: SimpleNamespace,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand sides (dT/dt, dS/dt) over ``(nz, ny, nx)``.

        Parameters
        ----------
        temp, salt:
            Current tracer stacks; an optional leading batch axis
            (``(N, nz, ny, nx)``) vectorizes the tendency over a whole
            ensemble, bit-identically to per-member evaluation.
        u, v:
            Layer velocity (2-D, or batched ``(N, ny, nx)``); scaled by
            the depth structure per level.
        deta_dt:
            Interface-height tendency (m/s); drives thermocline heave.
            Zero on land, as :meth:`ShallowWaterDynamics.step_dynamics`
            returns it.
        work:
            A :meth:`workspace` for the stacks' leading shape, whose
            ``heat`` the caller has set to the net surface heat flux
            (W/m^2, applied to the top level; zero on land, as
            :meth:`AtmosphericForcing.heat_flux` writes it there).

        The stencil carries the land mask in its coefficients, so with
        these two zero on land both tendencies are zero there.  They are
        views of one halo-layout buffer of ``work``, overwritten by its
        next step.
        """
        w = work
        np.copyto(w.temp, temp)
        np.copyto(w.salt, salt)
        # Land-filled tracer: zero-gradient at the coast, so diffusion
        # and advection see a no-flux wall, not a 0-valued one.
        w.fill()
        replicate_rim(w.rim)
        # Advection by the level's velocity and diffusion as one stencil
        # over the halo runs: a_E/W = cx -/+ u s_k wx, a_N/S = cy -/+ v s_k wy,
        # and the centre a_C = 2 (cx + cy) + 1/tau carries the relaxation.
        np.multiply(v, self._wy_wet, out=w.v_wy)
        np.multiply(u, self._wx_wet, out=w.u_wx)
        np.copyto(w.deta_dt, deta_dt)
        centre, east, west, north, south = w.runs
        (a_en, a_ws), out, term = w.pair, w.out, w.term
        np.matmul(self._coef_x, w.rows_x, out=w.coef)
        np.multiply(east, a_en, out=out)
        np.multiply(west, a_ws, out=term)
        out += term
        np.matmul(self._coef_y, w.rows_y, out=w.coef)
        np.multiply(north, a_en, out=term)
        out += term
        np.multiply(south, a_ws, out=term)
        out += term
        np.multiply(centre, self._a_centre, out=term)  # the fill is land only
        out -= term
        # Relaxation source, thermocline heave and surface heating.
        np.matmul(self._source, w.rows_source, out=w.source)
        out += term
        return w.tend

    def workspace(self, lead: tuple[int, ...], shared: SharedBlock) -> SimpleNamespace:
        """The buffers and views of :meth:`tendencies` for ``lead``-led stacks.

        A run builds one and hands it to every step; the operator is shared
        by pool threads, so it never keeps one.  The halo, coefficient,
        stencil and scratch buffers come from ``shared``: each call rewrites
        them, and the returned tendencies are read before the next step.
        """
        nz, ny, nx = self.grid.shape3d
        shape = (*lead, 2, nz, ny + 2, nx + 2)
        halo, coef, stencil, scratch = shared.take(
            shape, (*lead, 2, 1, *shape[-3:]), shape, shape
        )
        w = SimpleNamespace(fill=self._fill_land.bind(halo))
        w.both = halo[..., 1:-1, 1:-1]
        w.temp, w.salt = w.both[..., 0, :, :, :], w.both[..., 1, :, :, :]
        w.rim, w.runs = rim_pairs(halo), halo_runs(halo, 3)
        # The rows (v wy, 1, u wx, deta/dt, heat flux) in the halo layout:
        # the rims stay zero and the wet row is constant, so both are set
        # here once.
        rows = np.zeros((*lead, 5, ny + 2, nx + 2))
        inner = rows[..., 1:-1, 1:-1]
        w.v_wy, w.u_wx, w.deta_dt, w.heat = (inner[..., k, :, :] for k in (0, 2, 3, 4))
        rows = rows.reshape(*lead, 5, -1)
        rows[..., 1, :] = self._wet_row
        w.rows_y, w.rows_x = rows[..., 0:2, :], rows[..., 1:3, :]
        w.rows_source = rows[..., 1:5, :]
        # (a_E, a_W), then (a_N, a_S): each pair one product into the layout
        # (pair, 1, nz, ny + 2, nx + 2) of the halo runs, read as (a_en, a_ws).
        per_row = (*lead, 2 * nz, rows.shape[-1])
        w.coef = coef.reshape(per_row)
        pair = halo_run(coef, 3)
        w.pair = pair[..., 0, :, :], pair[..., 1, :, :]
        w.out, w.term = halo_run(stencil, 3), halo_run(scratch, 3)
        w.source = scratch.reshape(per_row)
        tend = stencil[..., 1:-1, 1:-1]
        w.tend = tend[..., 0, :, :, :], tend[..., 1, :, :, :]
        return w
