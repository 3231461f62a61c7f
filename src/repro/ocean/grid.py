"""Regular ocean grid with land/sea mask and depth levels.

Fields are collocated (A-grid): simpler masking than a staggered C-grid and
entirely adequate for the mesoscale "scale window" the paper targets.  All
horizontal arrays are indexed ``[y, x]`` (row = northing) and 3-D tracer
arrays ``[z, y, x]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Reference latitude (degrees north) of the Coriolis parameter: Monterey Bay.
LAT0 = 36.7


@dataclass(frozen=True)
class OceanGrid:
    """A regular, masked ocean grid.

    Parameters
    ----------
    nx, ny:
        Number of points east/north.
    dx, dy:
        Grid spacing in metres.
    z_levels:
        Depth-level centres in metres, positive downward, ascending
        (e.g. ``[5, 15, 30, ...]``).
    mask:
        Boolean ``(ny, nx)``; True over ocean.  Defaults to all-ocean.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    z_levels: tuple[float, ...]
    mask: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.ny}x{self.nx}")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacing must be positive")
        z = np.asarray(self.z_levels, dtype=float)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("z_levels must be a non-empty 1-D sequence")
        if np.any(np.diff(z) <= 0) or np.any(z < 0):
            raise ValueError("z_levels must be non-negative and strictly ascending")
        object.__setattr__(self, "z_levels", tuple(float(v) for v in z))
        if self.mask is None:
            object.__setattr__(self, "mask", np.ones((self.ny, self.nx), dtype=bool))
        else:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != (self.ny, self.nx):
                raise ValueError(
                    f"mask shape {mask.shape} does not match grid ({self.ny}, {self.nx})"
                )
            object.__setattr__(self, "mask", mask)

    # -- geometry -------------------------------------------------------

    @property
    def nz(self) -> int:
        """Number of depth levels."""
        return len(self.z_levels)

    @property
    def shape2d(self) -> tuple[int, int]:
        """Shape of a horizontal field, ``(ny, nx)``."""
        return (self.ny, self.nx)

    @property
    def shape3d(self) -> tuple[int, int, int]:
        """Shape of a tracer field, ``(nz, ny, nx)``."""
        return (self.nz, self.ny, self.nx)

    @property
    def n_ocean(self) -> int:
        """Number of wet points in a horizontal field."""
        return int(np.count_nonzero(self.mask))

    @property
    def coriolis(self) -> float:
        """Coriolis parameter f = 2 Omega sin(LAT0), in 1/s."""
        omega = 7.2921159e-5
        return 2.0 * omega * np.sin(np.deg2rad(LAT0))

    # -- indexing helpers ----------------------------------------------

    def level_index(self, depth: float) -> int:
        """Index of the depth level closest to ``depth`` metres."""
        z = np.asarray(self.z_levels)
        return int(np.argmin(np.abs(z - depth)))

    def nearest_point(self, x: float, y: float) -> tuple[int, int]:
        """Grid indices ``(j, i)`` of the wet point nearest to ``(x, y)`` m.

        The one-point case of :meth:`nearest_points`.

        Raises
        ------
        ValueError
            If the grid has no wet points.
        """
        j, i = self.nearest_points(np.array([x]), np.array([y]))
        return int(j[0]), int(i[0])

    def nearest_points(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grid indices ``(j, i)`` of the wet points nearest to ``(xs, ys)`` m.

        Each position rounds to its grid cell (clipped to the domain); a
        cell on land falls back to the nearest wet point by Euclidean grid
        distance, the first in row-major order on a tie.

        Raises
        ------
        ValueError
            If the grid has no wet points.
        """
        j = np.clip(np.rint(np.asarray(ys, dtype=float) / self.dy), 0, self.ny - 1)
        i = np.clip(np.rint(np.asarray(xs, dtype=float) / self.dx), 0, self.nx - 1)
        j, i = j.astype(np.intp), i.astype(np.intp)
        dry = ~self.mask[j, i]
        if dry.any():
            jj, ii = np.nonzero(self.mask)
            if jj.size == 0:
                raise ValueError("grid has no ocean points")
            d2 = (jj - j[dry, None]) ** 2 * (self.dy / self.dx) ** 2 + (
                ii - i[dry, None]
            ) ** 2
            nearest = np.argmin(d2, axis=1)
            j[dry], i[dry] = jj[nearest], ii[nearest]
        return j, i

    def apply_mask(self, fld: np.ndarray) -> np.ndarray:
        """Return a copy of ``fld`` with land points set to zero.

        Works for 2-D ``(ny, nx)`` and 3-D ``(nz, ny, nx)`` fields.
        """
        fld = np.asarray(fld, dtype=float)
        if fld.shape[-2:] != self.shape2d:
            raise ValueError(
                f"field shape {fld.shape} incompatible with grid {self.shape2d}"
            )
        return np.where(self.mask, fld, 0.0)


def demo_grid(nx: int = 24, ny: int = 20, nz: int = 4) -> OceanGrid:
    """A small closed-basin grid used by unit tests and doctests.

    The outermost ring of cells is land so the basin is closed; wind-driven
    runs are then stable without open-boundary machinery.
    """
    depths = tuple(np.linspace(5.0, 150.0, nz))
    mask = np.ones((ny, nx), dtype=bool)
    mask[0, :] = mask[-1, :] = False
    mask[:, 0] = mask[:, -1] = False
    return OceanGrid(nx=nx, ny=ny, dx=3000.0, dy=3000.0, z_levels=depths, mask=mask)
