"""Vertical acoustic sections through ocean model states.

"Sound-propagation studies often focus on vertical sections.  ESSE ocean
physics uncertainties are transferred to acoustical uncertainties along
such a section" (paper Sec 2.2).  :func:`extract_section` walks a straight
line between two points of the model grid, collects the (T, S) columns,
converts them to sound speed, and interpolates onto a fine uniform vertical
grid suitable for the mode solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.soundspeed import sound_speed_profile
from repro.ocean.grid import OceanGrid
from repro.ocean.model import ModelState

#: Vertical resolution of a section's acoustic grid (m).
SECTION_DZ = 4.0


@dataclass(frozen=True)
class AcousticSection:
    """A range-dependent vertical sound-speed section.

    Attributes
    ----------
    ranges:
        Along-section range of each column, metres from the source end,
        ascending, shape ``(nr,)``.
    depths:
        Uniform fine vertical grid, metres positive down, shape ``(nz,)``.
    sound_speed:
        Sound speed c(z, r), shape ``(nz, nr)``.
    temperature:
        Temperature interpolated on the same grid, shape ``(nz, nr)``
        (kept for the coupled physical-acoustical covariance).
    water_depth:
        Waveguide depth at each range (m), shape ``(nr,)``.
    """

    ranges: np.ndarray
    depths: np.ndarray
    sound_speed: np.ndarray
    temperature: np.ndarray
    water_depth: np.ndarray

    def __post_init__(self):
        nr = self.ranges.size
        nz = self.depths.size
        if self.sound_speed.shape != (nz, nr):
            raise ValueError(
                f"sound_speed shape {self.sound_speed.shape} != ({nz}, {nr})"
            )
        if self.temperature.shape != (nz, nr):
            raise ValueError("temperature shape mismatch")
        if self.water_depth.shape != (nr,):
            raise ValueError("water_depth shape mismatch")
        if np.any(np.diff(self.ranges) <= 0):
            raise ValueError("ranges must be strictly ascending")

    @property
    def length(self) -> float:
        """Section length in metres."""
        return float(self.ranges[-1] - self.ranges[0])


def extract_section(
    grid: OceanGrid,
    state: ModelState,
    start: tuple[float, float],
    end: tuple[float, float],
    n_ranges: int = 24,
    max_depth: float | None = None,
    bathymetry: np.ndarray | None = None,
) -> AcousticSection:
    """Extract the sound-speed section between two points (metres).

    Columns falling on land reuse the nearest wet column (the instrumented
    line hugs the coast in Monterey Bay); the waveguide depth is the
    deepest model level by default, or ``max_depth``.

    Parameters
    ----------
    grid, state:
        Model grid and state to sample.
    start, end:
        Section end points ``(x, y)`` in metres; the source sits at
        ``start``.
    n_ranges:
        Number of columns along the section (>= 2); the acoustic grid's
        vertical resolution is ``SECTION_DZ``.
    max_depth:
        Waveguide truncation depth; defaults to the deepest model level.
    bathymetry:
        Optional water-depth field ``(ny, nx)`` (e.g.
        :attr:`SyntheticBathymetry.depth`); when given, the waveguide depth
        varies along range as ``min(bathymetry, max_depth)`` -- the
        Monterey-canyon geometry the TL solver handles adiabatically.
    """
    if n_ranges < 2:
        raise ValueError("need at least two range columns")
    z_model = np.asarray(grid.z_levels)
    bottom = float(max_depth if max_depth is not None else z_model[-1])
    if bottom <= z_model[0]:
        raise ValueError("max_depth must exceed the first model level")

    depths = np.arange(0.0, bottom + SECTION_DZ / 2, SECTION_DZ)
    fracs = np.linspace(0.0, 1.0, n_ranges)
    xs = start[0] + fracs * (end[0] - start[0])
    ys = start[1] + fracs * (end[1] - start[1])
    ranges = fracs * float(np.hypot(end[0] - start[0], end[1] - start[1]))

    if bathymetry is not None:
        bathymetry = np.asarray(bathymetry, dtype=float)
        if bathymetry.shape != grid.shape2d:
            raise ValueError(
                f"bathymetry shape {bathymetry.shape} != grid {grid.shape2d}"
            )

    j, i = grid.nearest_points(xs, ys)
    t_model = state.temp[:, j, i]
    c_model = sound_speed_profile(t_model, state.salt[:, j, i], z_model)
    # np.interp's formula, slope * (z - z_lo) + f_lo, with its weights taken
    # once for the section; beyond the model levels the end value is held
    # (lo == hi, offset 0).
    lo = np.searchsorted(z_model, depths, side="right") - 1
    inside = (lo >= 0) & (lo < z_model.size - 1)
    lo = np.clip(lo, 0, z_model.size - 1)
    hi = np.where(inside, lo + 1, lo)
    span = np.where(inside, z_model[hi] - z_model[lo], 1.0)[:, None]
    offset = np.where(inside, depths - z_model[lo], 0.0)[:, None]

    def interp(f: np.ndarray) -> np.ndarray:
        return (f[hi] - f[lo]) / span * offset + f[lo]

    water_depth = np.full(n_ranges, bottom)
    if bathymetry is not None:
        # at least a few nodes of water so the column supports modes
        water_depth = np.minimum(np.maximum(bathymetry[j, i], 4 * SECTION_DZ), bottom)
    return AcousticSection(
        ranges=ranges,
        depths=depths,
        sound_speed=interp(c_model),
        temperature=interp(t_model),
        water_depth=water_depth,
    )
