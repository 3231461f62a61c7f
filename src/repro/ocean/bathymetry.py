"""Synthetic Monterey-Bay-like bathymetry and coastline.

The AOSN-II experiment (paper Sec 6) ran over Monterey Bay off central
California: a north-south coastline on the *east* edge of the domain, a
crescent-shaped bay cut into it, and a deep submarine canyon running from
the bay mouth out to the open Pacific.  We synthesize that geometry
analytically; the exact shape only needs to provide (a) a coast for
boundary effects, (b) an along-shore upwelling wind response and (c) enough
structure that uncertainty fields (Figs 5-6) show realistic spatial
patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ocean.grid import OceanGrid


@dataclass(frozen=True)
class SyntheticBathymetry:
    """Water depth and land mask over a grid.

    Attributes
    ----------
    depth:
        Water depth (m, positive) over ``(ny, nx)``; zero over land.
    mask:
        True over ocean.
    """

    depth: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if depth.shape != mask.shape:
            raise ValueError("depth and mask shapes differ")
        if np.any(depth < 0):
            raise ValueError("depth must be non-negative")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "mask", mask)

    @property
    def max_depth(self) -> float:
        """Deepest point (m)."""
        return float(self.depth.max())


#: Fraction of the x-extent that is ocean; the coastline sits near
#: ``x = COAST_FRACTION * Lx`` with a bay carved eastward of it.
COAST_FRACTION = 0.78
#: Northing of the bay centre as a fraction of the y-extent.
BAY_CENTER_FRACTION = 0.55
#: Bay radius as a fraction of the y-extent.
BAY_RADIUS_FRACTION = 0.16
#: Maximum canyon depth (m).
CANYON_DEPTH = 1200.0
#: Depth of the continental shelf at the coast (m).
SHELF_DEPTH = 120.0


def monterey_bathymetry(nx: int = 42, ny: int = 36) -> SyntheticBathymetry:
    """Build the synthetic Monterey Bay geometry on an ``(ny, nx)`` grid.

    The shape is fixed by the module constants above.
    """
    xf = np.linspace(0.0, 1.0, nx)[None, :]
    yf = np.linspace(0.0, 1.0, ny)[:, None]

    # Coastline: mostly straight, with a semicircular bay indentation.
    coast_x = np.full((ny, 1), COAST_FRACTION)
    bay = BAY_RADIUS_FRACTION * np.sqrt(
        np.clip(1.0 - ((yf - BAY_CENTER_FRACTION) / BAY_RADIUS_FRACTION) ** 2, 0.0, None)
    )
    coast_x = coast_x + 0.8 * bay  # bay pushes the waterline eastward

    mask = xf < coast_x
    # Close the domain: the outermost ring is a wall, so the west/south/
    # north edges are handled by the same free-slip coastline machinery as
    # the coast itself (with a sponge just inside emulating radiation).
    mask[0, :] = False
    mask[-1, :] = False
    mask[:, 0] = False
    mask[:, -1] = False

    # Depth: a continental shelf plateau at the coast, then an exponential
    # drop-off toward the abyss, plus a canyon thalweg entering at the bay
    # centre latitude (Monterey canyon cuts through the shelf).
    dist_off = np.clip(coast_x - xf, 0.0, None)
    shelf_width = 0.10  # fraction of the x-extent kept at shelf depth
    beyond = np.clip(dist_off - shelf_width, 0.0, None)
    depth = SHELF_DEPTH + (3500.0 - SHELF_DEPTH) * (1.0 - np.exp(-beyond / 0.22))
    canyon = CANYON_DEPTH * np.exp(
        -(((yf - BAY_CENTER_FRACTION) / 0.05) ** 2)
    ) * np.exp(-((dist_off - 0.05) / 0.18) ** 2)
    depth = depth + canyon
    depth = np.where(mask, depth, 0.0)
    return SyntheticBathymetry(depth=depth, mask=mask)


def monterey_grid(
    nx: int = 42,
    ny: int = 36,
    nz: int = 10,
    max_level_depth: float = 400.0,
) -> OceanGrid:
    """An :class:`OceanGrid` over the synthetic Monterey domain.

    Depth levels are stretched: fine near the surface (mixed layer and
    thermocline, where Figs 5-6 live) and coarser below.
    """
    bathy = monterey_bathymetry(nx=nx, ny=ny)
    # Stretched levels: z_k = max_depth * (k/nz)^1.7 + 5 m surface offset.
    frac = (np.arange(nz) + 0.5) / nz
    z = 5.0 + (max_level_depth - 5.0) * frac**1.7
    return OceanGrid(
        nx=nx, ny=ny, dx=3000.0, dy=3000.0, z_levels=tuple(z), mask=bathy.mask
    )
