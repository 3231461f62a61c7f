"""Adaptive sampling: uncertainty-guided observation placement.

Paper Sec 7: "Another area where MTC would be most valuable is the
intelligent coordination of autonomous ocean sampling networks.  To
achieve optimal and adaptive sampling ..." -- during AOSN-II the ESSE
system was used in real time to "provide suggestions for adaptive
sampling" (Sec 6).

The classic criterion is implemented here: place the next observations
where the forecast error subspace predicts the largest (remaining)
variance, greedily, with a posterior-variance update after each pick so
the selected points do not cluster on one uncertainty lobe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import FieldLayout
from repro.core.subspace import ErrorSubspace
from repro.obs.instruments import Instrument
from repro.ocean.grid import OceanGrid


@dataclass(frozen=True)
class SamplingSuggestion:
    """One suggested observation location."""

    field: str
    level: int
    j: int
    i: int
    predicted_variance: float


#: Assumed noise std-dev (deg C) of an adaptive SST sample, both when
#: conditioning the placement and when sampling.
ADAPTIVE_NOISE_STD = 0.05


def suggest_sampling_locations(
    subspace: ErrorSubspace,
    layout: FieldLayout,
    grid: OceanGrid,
    count: int = 5,
) -> list[SamplingSuggestion]:
    """Greedy variance-reduction placement of ``count`` SST observations.

    At each step the wet point with the largest current subspace variance
    of ``temp`` at level 0 is selected, then the subspace variance is
    conditioned on a hypothetical observation there (scalar Kalman update
    in mode space, noise ``ADAPTIVE_NOISE_STD``) before the next pick -- so
    later picks account for the information the earlier ones will already
    bring.

    Parameters
    ----------
    subspace:
        Forecast error subspace (normalized coordinates).
    layout, grid:
        State layout and grid (for masking and indexing).
    count:
        Number of suggestions.

    Returns
    -------
    Suggestions in pick order (most informative first).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    spec = layout.spec("temp")
    ny, nx = spec.shape[1:]
    if (ny, nx) != grid.shape2d:
        raise ValueError("field shape does not match the grid")

    base = layout.slice_of("temp").start
    scale = spec.scale
    noise_var_norm = (ADAPTIVE_NOISE_STD / scale) ** 2

    # Work on the (n_wet, p) block of modes at this level, in normalized
    # units; condition the mode covariance S after each pick.
    wet_j, wet_i = np.nonzero(grid.mask)
    flat = base + wet_j * nx + wet_i
    modes_here = subspace.modes[flat, :]  # (n_wet, p)
    s_cov = np.diag(subspace.variances).astype(float)

    suggestions: list[SamplingSuggestion] = []
    taken: set[int] = set()
    for _ in range(min(count, wet_j.size)):
        variance = np.einsum("ip,pq,iq->i", modes_here, s_cov, modes_here)
        order = np.argsort(variance)[::-1]
        pick = next((k for k in order if k not in taken), None)
        if pick is None:
            break
        taken.add(int(pick))
        suggestions.append(
            SamplingSuggestion(
                field="temp",
                level=0,
                j=int(wet_j[pick]),
                i=int(wet_i[pick]),
                predicted_variance=float(variance[pick]) * scale**2,
            )
        )
        # scalar conditioning: S <- S - S h h^T S / (h^T S h + r)
        h = modes_here[pick, :]
        sh = s_cov @ h
        denom = float(h @ sh) + noise_var_norm
        if denom > 0:
            s_cov = s_cov - np.outer(sh, sh) / denom
    return suggestions


class AdaptiveSampler(Instrument):
    """An instrument that samples at ESSE-suggested locations.

    Built from the *current forecast subspace*; sampling the truth at the
    suggested points closes the adaptive-observation loop of Sec 6
    ("provide suggestions for adaptive sampling").
    """

    name = "adaptive"

    def __init__(self, suggestions: list[SamplingSuggestion]):
        if not suggestions:
            raise ValueError("need at least one suggestion")
        self.suggestions = tuple(suggestions)

    def sample_points(self, grid: OceanGrid) -> list[tuple[str, int, int, int]]:
        """The suggested high-uncertainty points, verbatim."""
        return [(s.field, s.level, s.j, s.i) for s in self.suggestions]

    def noise_std_for(self, fieldname: str) -> float:
        """Uniform noise std-dev for all adaptive samples."""
        return ADAPTIVE_NOISE_STD
