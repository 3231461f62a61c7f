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

import numpy as np

from repro.ocean.dynamics import (
    halo_buffer,
    halo_ddx,
    halo_ddy,
    halo_laplacian,
    replicate_rim,
    rim_weights,
)
from repro.ocean.grid import OceanGrid
from repro.ocean.masking import LandFiller


def climatological_profile(
    z_levels: np.ndarray | tuple[float, ...],
    surface_temp: float = 15.0,
    deep_temp: float = 7.0,
    thermocline_depth: float = 60.0,
    thermocline_width: float = 45.0,
    surface_salt: float = 33.4,
    deep_salt: float = 34.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Background (T(z), S(z)) profiles for central California.

    A tanh thermocline between ``surface_temp`` and ``deep_temp`` centred at
    ``thermocline_depth``; salinity increases monotonically with depth.
    """
    z = np.asarray(z_levels, dtype=float)
    shape_fn = 0.5 * (1.0 + np.tanh((z - thermocline_depth) / thermocline_width))
    temp = surface_temp + (deep_temp - surface_temp) * shape_fn
    salt = surface_salt + (deep_salt - surface_salt) * shape_fn
    return temp, salt


@dataclass
class TracerDynamics:
    """Tendency operator for the (T, S) tracer stack.

    Parameters
    ----------
    grid:
        Ocean grid.
    diffusivity:
        Lateral eddy diffusivity (m^2/s).
    relaxation_time:
        e-folding time (s) of the relaxation toward climatology; weak, it
        keeps the twin-experiment fields bounded over weeks.
    velocity_decay_depth:
        e-folding depth (m) of the velocity structure function.
    heave_gain:
        deg C of temperature change per metre of interface displacement per
        unit of the vertical structure function (thermocline-heave coupling).
    heat_capacity_depth:
        Effective mixed-layer depth (m) converting surface heat flux to a
        surface-level temperature tendency.
    """

    grid: OceanGrid
    diffusivity: float = 60.0
    relaxation_time: float = 30.0 * 86400.0
    velocity_decay_depth: float = 120.0
    heave_gain: float = 0.02
    heat_capacity_depth: float = 25.0

    def __post_init__(self):
        if self.diffusivity < 0:
            raise ValueError("diffusivity must be non-negative")
        if self.relaxation_time <= 0:
            raise ValueError("relaxation_time must be positive")
        z = np.asarray(self.grid.z_levels)
        t_prof, s_prof = climatological_profile(z)
        self._vel_structure = np.exp(-z / self.velocity_decay_depth)[:, None, None]
        # Thermocline heave is strongest where dT/dz is largest.  Uplift
        # (deta/dt < 0) cools, depression warms: 3.5 deg C per unit of
        # gain x structure x displacement rate; upwelled water is saltier.
        dtdz = np.gradient(t_prof, z)
        norm = np.max(np.abs(dtdz))
        structure = (np.abs(dtdz) / norm) if norm > 0 else np.zeros_like(z)
        self._heave = (
            np.array([3.5, -0.3])[:, None] * (self.heave_gain * structure)
        )[:, :, None, None]
        # T and S step as one (2, nz, ny, nx) stack: every stencil pass is
        # issued once.  All of these are constants (shared across threads).
        self._clim = np.stack([t_prof, s_prof])[:, :, None, None]
        self._fill_land = LandFiller(self.grid.mask)
        self._wet = self.grid.mask.astype(float)
        self._wx = rim_weights(self.grid.nx, self.grid.dx)
        self._wy = rim_weights(self.grid.ny, self.grid.dy)[:, None]

    def tendencies(
        self,
        temp: np.ndarray,
        salt: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        deta_dt: np.ndarray,
        heat_flux: np.ndarray,
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
        heat_flux:
            Net surface heat flux (W/m^2), applied to the top level.
        """
        halo, both = halo_buffer((*temp.shape[:-3], 2, *temp.shape[-3:]))
        both[..., 0, :, :, :] = temp
        both[..., 1, :, :, :] = salt
        # Land-filled tracer: zero-gradient at the coast, so diffusion
        # and advection see a no-flux wall, not a 0-valued one.
        self._fill_land.fill(both)
        replicate_rim(halo)
        adv = halo_ddx(halo, self._wx)
        adv *= u[..., None, None, :, :] * self._vel_structure
        term = halo_ddy(halo, self._wy)
        term *= v[..., None, None, :, :] * self._vel_structure
        adv += term
        cx = self.diffusivity / self.grid.dx**2
        cy = self.diffusivity / self.grid.dy**2
        tend = halo_laplacian(halo, cx, cy)
        tend -= adv
        np.subtract(self._clim, both, out=term)  # relaxation (the fill is land only)
        term /= self.relaxation_time
        tend += term
        np.multiply(deta_dt[..., None, None, :, :], self._heave, out=term)
        tend += term

        # Surface heating on the top level.
        rho_cp = 1025.0 * 3990.0
        tend[..., 0, 0, :, :] += heat_flux / (rho_cp * self.heat_capacity_depth)

        tend *= self._wet
        return tend[..., 0, :, :, :], tend[..., 1, :, :, :]
