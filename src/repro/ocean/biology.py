"""A lightweight biological tracer: one-way coupled phytoplankton.

The paper's title is *multidisciplinary* ocean science, and its
introduction lists "carbon and biogeochemical cycles; ecosystem dynamics"
among the DA applications; the covariance dimension explicitly counts
"biochemical/physical tracer variables" (Sec 4.1).  This module supplies
the smallest defensible representative: a phytoplankton concentration
``P`` (mg chl / m^3) driven one-way by the physical trajectory --

    dP/dt = mu(light, nutrient) P - m P^2 + advection + diffusion,

where light decays with depth and the nutrient proxy is upwelling: uplift
of the interface (eta < 0) imports nutrients, so the model reproduces the
classic Monterey pattern of coastal-upwelling-fed blooms.
"""

from __future__ import annotations

import numpy as np

from repro.ocean.dynamics import ddx, ddy, laplacian
from repro.ocean.grid import OceanGrid
from repro.ocean.masking import LandFiller
from repro.ocean.model import ModelState, PEModel


#: Light/nutrient-saturated growth rate (1/day).
MAX_GROWTH_PER_DAY = 0.8
#: Quadratic loss coefficient (1/day per mg chl m^-3).
MORTALITY_PER_DAY = 0.15
#: Euphotic-depth scale (m).
LIGHT_EFOLDING_DEPTH = 25.0
#: Nutrient-limitation relief per metre of interface uplift.
NUTRIENT_UPWELLING_GAIN = 0.8
#: Lateral eddy diffusivity (m^2/s).
DIFFUSIVITY = 60.0
#: Seed concentration (mg chl / m^3).
BACKGROUND = 0.2


class PhytoplanktonModel:
    """Evolves the phytoplankton stack along a physical model trajectory.

    The coupling is one-way (physics -> biology), matching how the paper's
    interdisciplinary runs feed ocean fields to downstream models; the
    tracer rides the same grid and velocity structure as temperature.

    Parameters
    ----------
    physics:
        The physical model supplying grid, velocity structure and dt.

    The biology is the module constants (growth, mortality, light depth,
    nutrient gain, diffusivity, seed concentration).
    """

    def __init__(self, physics: PEModel):
        self.physics = physics
        self.grid: OceanGrid = physics.grid
        z = np.asarray(self.grid.z_levels)
        self._light = np.exp(-z / LIGHT_EFOLDING_DEPTH)[:, None, None]
        self._vel_structure = physics.tracers._vel_structure
        self._fill = LandFiller(self.grid.mask)

    def initial_field(self) -> np.ndarray:
        """Uniform background concentration over the euphotic zone."""
        field = BACKGROUND * np.broadcast_to(
            self._light, self.grid.shape3d
        ).copy()
        return self.grid.apply_mask(field)

    def step(self, phyto: np.ndarray, state: ModelState) -> np.ndarray:
        """One forward-Euler step of length ``physics.config.dt``.

        Parameters
        ----------
        phyto:
            Current concentration, shape ``(nz, ny, nx)``.
        state:
            Physical state at the same instant (velocity and eta); the
            nutrient proxy uses its standing displacement ``-eta``.
        """
        grid = self.grid
        dt = self.physics.config.dt
        dx, dy = grid.dx, grid.dy

        filled = self._fill(phyto)
        u3 = state.u[None, :, :] * self._vel_structure
        v3 = state.v[None, :, :] * self._vel_structure
        adv = -u3 * ddx(filled, dx) - v3 * ddy(filled, dy)
        diff = DIFFUSIVITY * laplacian(filled, dx, dy)

        # nutrient proxy: standing uplift
        uplift = np.clip(-state.eta, 0.0, None)
        nutrient = np.clip(
            0.2 + NUTRIENT_UPWELLING_GAIN * uplift, 0.0, 1.0
        )[None, :, :]
        growth_rate = (
            MAX_GROWTH_PER_DAY / 86400.0 * self._light * nutrient
        )
        mortality = MORTALITY_PER_DAY / 86400.0 * phyto
        reaction = (growth_rate - mortality) * phyto

        out = phyto + dt * (adv + diff + reaction)
        out = np.clip(out, 0.0, None)  # concentrations stay non-negative
        return grid.apply_mask(out)

    def run_along(
        self, initial_state: ModelState, duration: float
    ) -> tuple[np.ndarray, ModelState]:
        """Integrate physics and biology together for ``duration`` seconds,
        starting from :meth:`initial_field`.

        Returns the final (phytoplankton, physical state) pair.
        """
        holder = {"phyto": self.initial_field()}

        def follow(_step, state):
            holder["phyto"] = self.step(holder["phyto"], state)

        final_state = self.physics.run(initial_state, duration, callback=follow)
        return holder["phyto"], final_state

    def surface_chlorophyll(self, phyto: np.ndarray) -> np.ndarray:
        """The satellite-visible surface layer, shape ``(ny, nx)``."""
        return phyto[0]
