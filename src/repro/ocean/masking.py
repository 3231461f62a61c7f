"""Coastline (land-mask) handling for collocated-grid stencils.

Centred stencils reach across the coastline.  For quantities with a
zero-gradient (free-slip / no-flux) wall condition -- interface height and
tracers -- the land values next to the coast must mirror the adjacent ocean
values; leaving them at 0 imposes a spurious Dirichlet condition that both
distorts the physics (e.g. lateral diffusion "cooling" the coast toward a
0 degC wall) and destabilizes the pressure gradient.  :class:`LandFiller`
precomputes the coastal stencil once, as a gather table over the land
cells that border the ocean, and fills them with the mean of their wet
4-neighbours.
"""

from __future__ import annotations

import numpy as np


class LandFiller:
    """Fill land cells adjacent to the ocean with neighbouring wet values.

    Parameters
    ----------
    mask:
        Boolean ``(ny, nx)``; True over ocean.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        self.mask = mask
        ny, nx = mask.shape
        # Every (land cell, neighbour) pair in up / down / left / right
        # order (the summation order of the fill), kept when the neighbour
        # is wet.  A neighbour beyond the array edge clips to the (dry)
        # cell itself, so the rim needs no special case.
        jj, ii = np.nonzero(~mask)
        near_j = (jj[:, None] + np.array([-1, 1, 0, 0])).clip(0, ny - 1)
        near_i = (ii[:, None] + np.array([0, 0, -1, 1])).clip(0, nx - 1)
        wet = mask[near_j, near_i]  # shape: (n_land, 4)
        count = np.zeros(mask.shape)
        count[jj, ii] = wet.sum(axis=1)
        self._count = count
        # The gather tables: wet neighbours grouped by coastal cell, where
        # each cell's group starts, and where its mean goes.
        cell = np.nonzero(wet)[0]
        self._near_j, self._near_i = near_j[wet], near_i[wet]
        self._starts = np.flatnonzero(np.diff(cell, prepend=-1))
        coastal = wet.any(axis=1)
        self._fill_j, self._fill_i = jj[coastal], ii[coastal]
        self._fill_count = count[self._fill_j, self._fill_i]

    def fill(self, fld: np.ndarray) -> None:
        """Fill the coastal land cells of ``fld`` in place (views welcome)."""
        near = fld[..., self._near_j, self._near_i]
        total = np.add.reduceat(near, self._starts, axis=-1)
        total /= self._fill_count
        fld[..., self._fill_j, self._fill_i] = total

    def __call__(self, fld: np.ndarray) -> np.ndarray:
        """Return a copy of ``fld`` with coastal land cells filled.

        Accepts any array whose trailing two dimensions match the mask
        (2-D fields or 3-D tracer stacks).
        """
        fld = np.asarray(fld)
        if fld.shape[-2:] != self.mask.shape:
            raise ValueError(
                f"field shape {fld.shape} incompatible with mask {self.mask.shape}"
            )
        out = np.array(fld, dtype=float, copy=True)
        self.fill(out)
        return out
