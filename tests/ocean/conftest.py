"""Shared test doubles of the ocean tests."""

import numpy as np

from repro.ocean.model import ModelState


class CalmForcing:
    """No wind and no heat flux: a stand-in for ``PEModel(forcing=)``."""

    def __init__(self, grid):
        self._zero = np.zeros(grid.shape2d)

    def wind_stress(self, t, out=None):
        return self._zero, self._zero

    def heat_flux(self, t, out=None):
        return np.multiply(self._zero, 1.0, out=out)


def member(batch, i):
    """Member ``i`` of an ``EnsembleState`` as a ``ModelState`` (views)."""
    return ModelState(
        batch.u[i], batch.v[i], batch.eta[i], batch.temp[i], batch.salt[i], batch.time
    )
