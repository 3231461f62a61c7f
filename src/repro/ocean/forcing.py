"""Atmospheric forcing: wind stress and surface heat flux.

The AOSN-II ensembles were "each forced by forecast COAMPS atmospheric
fluxes" (paper Sec 6).  We synthesize a COAMPS-like product: a mean
upwelling-favourable (equatorward) along-shore wind with synoptic
relaxation/strengthening events, plus a diurnal-ish heat-flux cycle.  The
forcing is a deterministic function of time so every ensemble member sees
the same fluxes (model-error noise is separate, in
:mod:`repro.ocean.stochastic`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ocean.grid import OceanGrid


#: e-folding distance of the along-shore stress offshore, as a fraction of
#: the x-extent.
OFFSHORE_DECAY_FRACTION = 0.5
#: Mean wind-stress magnitude (N/m^2).
MEAN_TAU = 0.08
#: Period (s) of the wind relaxation/strengthening cycle; AOSN-II saw ~5-8
#: day upwelling/relaxation cycles.
SYNOPTIC_PERIOD = 6.0 * 86400.0
#: Fractional modulation of the mean wind over that cycle (0 = steady).
SYNOPTIC_AMPLITUDE = 0.6
#: Surface heat-flux amplitude (W/m^2) of the daily cycle.
HEAT_FLUX_AMPLITUDE = 80.0


def upwelling_wind_stress(grid: OceanGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean wind-stress pattern (tau_x, tau_y) in N/m^2.

    Equatorward (southward, tau_y < 0) along-shore stress, strongest at
    the coast and decaying offshore -- the classic central-California
    summer pattern, and the shape that drives coastal Ekman divergence
    (hence upwelling) against the eastern boundary.
    """
    xf = np.linspace(0.0, 1.0, grid.nx)[None, :]
    dist_offshore = 1.0 - xf  # 0 at the (eastern) coast
    profile = np.exp(-dist_offshore / OFFSHORE_DECAY_FRACTION)
    tau_y = -MEAN_TAU * (0.4 + 0.6 * profile) * np.ones((grid.ny, 1))
    tau_x = 0.15 * MEAN_TAU * np.sin(np.pi * xf) * np.ones((grid.ny, 1))
    return grid.apply_mask(tau_x * np.ones(grid.shape2d)), grid.apply_mask(
        tau_y * np.ones(grid.shape2d)
    )


@dataclass(frozen=True)
class AtmosphericForcing:
    """Time-dependent surface forcing over ``grid``.

    The wind is :func:`upwelling_wind_stress` modulated by the synoptic
    cycle; the module constants set its amplitudes and period.
    """

    grid: OceanGrid

    def __post_init__(self):
        tau_x, tau_y = upwelling_wind_stress(self.grid)
        object.__setattr__(self, "_tau_x0", tau_x)
        object.__setattr__(self, "_tau_y0", tau_y)
        object.__setattr__(self, "_wet", self.grid.mask.astype(float))

    def wind_stress(self, t: float, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
        """Wind stress fields (tau_x, tau_y) at model time ``t`` seconds, into ``out``."""
        phase = 2.0 * np.pi * t / SYNOPTIC_PERIOD
        factor = 1.0 + SYNOPTIC_AMPLITUDE * np.sin(phase)
        return (
            np.multiply(self._tau_x0, factor, out=out[0]),
            np.multiply(self._tau_y0, factor, out=out[1]),
        )

    def heat_flux(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """Net surface heat flux (W/m^2, positive warms) at time ``t``, into ``out``."""
        daily = np.cos(2.0 * np.pi * (t % 86400.0) / 86400.0 - np.pi)
        synoptic = 0.3 * np.sin(2.0 * np.pi * t / SYNOPTIC_PERIOD)
        return np.multiply(self._wet, HEAT_FLUX_AMPLITUDE * (daily + synoptic), out=out)
