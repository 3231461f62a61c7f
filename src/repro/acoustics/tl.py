"""Transmission-loss fields from adiabatic normal modes.

The acoustic pressure at range r and depth z for a point source at depth
zs is the modal sum (far-field Hankel asymptotics)

    p(r, z) = (e^{i pi/4} / sqrt(8 pi r)) *
              sum_m psi_m(zs) psi_m(z) e^{i integral kr_m dr'} / sqrt(kr_m),

with TL = -20 log10 |p| re 1 m.  Range dependence is handled adiabatically:
modes are solved on each section column, matched by index, and the phase
accumulates the local wavenumber -- the standard approximation for the
mesoscale-scale environmental gradients ESSE produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.environment import AcousticSection
from repro.acoustics.modes import ModeSet, solve_mode_stack


@dataclass(frozen=True)
class TLField:
    """A transmission-loss field over a section.

    Attributes
    ----------
    ranges:
        Receiver ranges (m), shape ``(nr,)`` (excludes the source point).
    depths:
        Receiver depths (m), shape ``(nz,)``.
    tl:
        Transmission loss (dB re 1 m), shape ``(nz, nr)``; larger = weaker.
    frequency:
        Source frequency (Hz).
    source_depth:
        Source depth (m).
    """

    ranges: np.ndarray
    depths: np.ndarray
    tl: np.ndarray
    frequency: float
    source_depth: float

    def __post_init__(self):
        if self.tl.shape != (self.depths.size, self.ranges.size):
            raise ValueError(
                f"tl shape {self.tl.shape} != ({self.depths.size}, {self.ranges.size})"
            )


_TL_FLOOR_DB = 160.0  # cap for shadow zones / mode-free columns


def transmission_loss(
    section: AcousticSection,
    frequency: float,
    source_depth: float = 30.0,
    max_modes: int | None = 40,
) -> TLField:
    """Adiabatic normal-mode TL over a section.

    Parameters
    ----------
    section:
        Environment (sound speed vs depth and range); the source sits at
        range 0.
    frequency:
        Source frequency (Hz).
    source_depth:
        Source depth (m); must lie inside the waveguide at the source.
    max_modes:
        Cap (>= 1) on the modal sum (lowest-order modes carry the energy).

    Notes
    -----
    Mode sets are matched by index between neighbouring columns, and the
    modal sum is truncated to the smallest local mode count -- the adiabatic
    approximation.  Columns with no propagating modes yield the TL floor.
    """
    depths, ranges = section.depths, section.ranges
    bottom = min(float(depths[-1]), float(section.water_depth[0]))
    if not 0.0 <= source_depth <= bottom:
        raise ValueError(f"source depth {source_depth} outside waveguide [0, {bottom}]")
    # Range-dependent waveguide: each column's eigenproblem is solved over
    # the local water depth (rigid seabed there).  A column equal to its
    # neighbour in profile and depth has the same modes, so each run of
    # equal columns is solved once; ``stack[c]`` is column c's solution.
    nz, nr = depths.size, ranges.size - 1
    c = section.sound_speed
    n_water = np.clip(np.searchsorted(depths, section.water_depth + 1e-9), 4, nz)
    new = np.ones(nr + 1, dtype=bool)
    new[1:] = (n_water[1:] != n_water[:-1]) | np.any(c[:, 1:] != c[:, :-1], axis=0)
    stack = np.cumsum(new) - 1
    kr, psi, n_modes = solve_mode_stack(c[:, new], depths, n_water[new], frequency, max_modes)
    width = kr.shape[1]

    # Adiabatic phase: the trapezoid of kr_m along range, cumulated over
    # columns, for the modes present at every column up to the receiver.
    kr_cols = kr[stack]
    steps = 0.5 * (kr_cols[1:] + kr_cols[:-1]) * np.diff(ranges)[:, None]
    phase = np.cumsum(steps, axis=0)
    common = np.arange(width) < np.minimum.accumulate(n_modes[stack])[1:, None]
    n_src = n_modes[0]
    amp_src = np.zeros(width)
    amp_src[:n_src] = ModeSet(
        kr[0, :n_src], psi[0, :n_src].T, depths, frequency
    ).at_depth(source_depth)
    # The modal sum for every receiver column in one product: receiver r's
    # coefficients sit in the block of its stack column, so the stack is
    # never expanded to all columns.  Padded modes (kr = 0) drop out.
    blocks = np.zeros((kr.shape[0], width, nr), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        blocks[stack[1:], :, np.arange(nr)] = np.where(
            common, amp_src * np.exp(1j * phase) / np.sqrt(kr_cols[1:]), 0.0
        )
        pressure = psi.reshape(-1, nz).T @ blocks.reshape(-1, nr).view(float)
        pressure = pressure.view(complex) / np.sqrt(8.0 * np.pi * ranges[1:])
        tl = -20.0 * np.log10(np.abs(pressure))
    tl = np.minimum(np.where(np.isfinite(tl), tl, _TL_FLOOR_DB), _TL_FLOOR_DB)
    return TLField(
        ranges=ranges[1:].copy(),
        depths=depths.copy(),
        tl=tl,
        frequency=frequency,
        source_depth=source_depth,
    )
