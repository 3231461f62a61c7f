"""Scalar and field diagnostics for model states and ensembles."""

from __future__ import annotations

import numpy as np

from repro.ocean.grid import OceanGrid
from repro.ocean.model import ModelState


def kinetic_energy(grid: OceanGrid, state: ModelState) -> float:
    """Area-mean kinetic energy of the layer flow (m^2/s^2)."""
    wet = grid.mask
    ke = 0.5 * (state.u[wet] ** 2 + state.v[wet] ** 2)
    return float(np.mean(ke)) if ke.size else 0.0


def max_current_speed(grid: OceanGrid, state: ModelState) -> float:
    """Maximum layer speed over ocean points (m/s)."""
    wet = grid.mask
    speed = np.sqrt(state.u[wet] ** 2 + state.v[wet] ** 2)
    return float(speed.max()) if speed.size else 0.0


def ensemble_std(fields: np.ndarray) -> np.ndarray:
    """Pointwise ensemble standard deviation.

    Parameters
    ----------
    fields:
        Stack of member fields, shape ``(n_members, ...)``; needs >= 2
        members.

    Returns
    -------
    Std-dev field of shape ``fields.shape[1:]`` (ddof=1, the unbiased
    estimator the paper's Figs 5-6 report).
    """
    fields = np.asarray(fields)
    if fields.ndim < 2 or fields.shape[0] < 2:
        raise ValueError("need a stack of at least 2 member fields")
    return np.std(fields, axis=0, ddof=1)
