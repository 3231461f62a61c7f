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
from repro.acoustics.modes import ModeSet, solve_modes


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
        Source depth (m); must lie inside the waveguide.
    max_modes:
        Cap on the modal sum (lowest-order modes carry the energy).

    Notes
    -----
    Mode sets are matched by index between neighbouring columns, and the
    modal sum is truncated to the smallest local mode count -- the adiabatic
    approximation.  Columns with no propagating modes yield the TL floor.
    """
    if not 0.0 <= source_depth <= float(section.depths[-1]):
        raise ValueError(
            f"source depth {source_depth} outside waveguide "
            f"[0, {section.depths[-1]}]"
        )
    # Range-dependent waveguide: each column's eigenproblem is solved over
    # the local water depth (rigid seabed there); mode functions are padded
    # with zeros below the bottom so the adiabatic index-matching and the
    # receiver grid stay uniform.
    nz_full = section.depths.size
    mode_sets: list[ModeSet] = []
    for r_index in range(section.ranges.size):
        c_prof, water_depth = section.column(r_index)
        n_local = int(np.searchsorted(section.depths, water_depth + 1e-9))
        n_local = max(min(n_local, nz_full), 4)
        local = solve_modes(
            c_prof[:n_local],
            section.depths[:n_local],
            frequency,
            max_modes=max_modes,
        )
        if n_local < nz_full and local.n_modes > 0:
            psi_full = np.zeros((nz_full, local.n_modes))
            psi_full[:n_local, :] = local.psi
            local = ModeSet(
                kr=local.kr,
                psi=psi_full,
                depths=section.depths,
                frequency=frequency,
            )
        mode_sets.append(local)

    src_modes = mode_sets[0]
    nz = section.depths.size
    nr = section.ranges.size - 1
    tl = np.full((nz, nr), _TL_FLOOR_DB)

    if src_modes.n_modes > 0:
        amp_src = src_modes.at_depth(source_depth)
        # Adiabatic phase: cumulative integral of kr_m along range, per mode,
        # truncated to the minimum mode count available up to that range.
        for col in range(1, section.ranges.size):
            n_common = min(ms.n_modes for ms in mode_sets[: col + 1])
            if n_common == 0:
                continue
            r = float(section.ranges[col])
            if r <= 0:
                continue
            # trapezoid rule over columns 0..col for each common mode
            kr_path = np.stack(
                [mode_sets[c].kr[:n_common] for c in range(col + 1)], axis=1
            )
            seg = np.diff(section.ranges[: col + 1])
            phase = np.sum(0.5 * (kr_path[:, 1:] + kr_path[:, :-1]) * seg, axis=1)
            kr_here = mode_sets[col].kr[:n_common]
            psi_here = mode_sets[col].psi[:, :n_common]
            coeff = (
                amp_src[:n_common]
                * np.exp(1j * phase)
                / np.sqrt(kr_here)
            )
            pressure = (psi_here @ coeff) / np.sqrt(8.0 * np.pi * r)
            with np.errstate(divide="ignore"):
                tl_col = -20.0 * np.log10(np.abs(pressure))
            tl[:, col - 1] = np.minimum(
                np.where(np.isfinite(tl_col), tl_col, _TL_FLOOR_DB), _TL_FLOOR_DB
            )

    return TLField(
        ranges=section.ranges[1:].copy(),
        depths=section.depths.copy(),
        tl=tl,
        frequency=frequency,
        source_depth=source_depth,
    )
