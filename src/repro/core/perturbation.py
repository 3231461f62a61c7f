"""Initial-condition perturbations from the error subspace.

Paper Sec 3.1: "ESSE proceeds to generate an ensemble of model integrations
whose initial conditions are perturbed with randomly weighted combinations
of the error modes", and Sec 6: "A white noise of an amplitude proportional
to the estimated ... errors is added to this random combination, in part to
represent the errors truncated by the error subspace."

Perturbations are keyed by (root seed, member index) so they are identical
no matter which host runs the member or in which order members complete --
the property the paper's per-index bookkeeping relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import FieldLayout
from repro.core.subspace import ErrorSubspace
from repro.util.linalg import truncated_svd
from repro.util.randomfields import GaussianRandomField2D
from repro.util.rng import member_rng

#: Physical perturbation std-dev per field of a cold-start subspace:
#: mesoscale-analysis errors (m/s, m, degC, psu).
FIELD_AMPLITUDES = {"u": 0.05, "v": 0.05, "eta": 0.5, "temp": 0.4, "salt": 0.04}
#: Horizontal correlation length of the cold-start perturbations (cells).
LENGTH_SCALE_CELLS = 5.0


@dataclass(frozen=True)
class PerturbationGenerator:
    """Draws member initial conditions around a mean state.

    Parameters
    ----------
    layout:
        State layout (for normalization).
    subspace:
        Error subspace supplying the dominant perturbation directions.
    root_seed:
        Experiment seed; members derive their streams from it.
    residual_fraction:
        Amplitude of the truncated-error white noise, as a fraction of the
        smallest retained mode's sigma (0 disables the residual).
    """

    layout: FieldLayout
    subspace: ErrorSubspace
    root_seed: int
    residual_fraction: float = 0.3

    def __post_init__(self):
        if self.subspace.state_dim != self.layout.size:
            raise ValueError(
                f"subspace dimension {self.subspace.state_dim} != layout size "
                f"{self.layout.size}"
            )
        if self.residual_fraction < 0:
            raise ValueError("residual_fraction must be >= 0")
        # Paper Sec 6: the truncated-error white noise has "an amplitude
        # proportional to the estimated ... errors" -- i.e. pointwise: the
        # residual std at each state entry is a fraction of the subspace's
        # own pointwise error std there.
        pointwise = np.sqrt(np.clip(self.subspace.variance_field(), 0.0, None))
        object.__setattr__(
            self, "_residual_std", self.residual_fraction * pointwise
        )

    def perturbation(self, member_index: int) -> np.ndarray:
        """The physical-space perturbation of one member, shape ``(n,)``."""
        rng = member_rng(self.root_seed, member_index, purpose="pert")
        coeffs = rng.standard_normal(self.subspace.rank) * self.subspace.sigmas
        normalized = self.subspace.modes @ coeffs
        if self.residual_fraction > 0 and self.subspace.rank > 0:
            normalized = normalized + self._residual_std * rng.standard_normal(
                self.layout.size
            )
        return self.layout.denormalize(normalized)

    def member_state(self, mean: np.ndarray, member_index: int) -> np.ndarray:
        """Mean state plus this member's perturbation."""
        mean = np.asarray(mean)
        if mean.shape != (self.layout.size,):
            raise ValueError(f"mean shape {mean.shape} != ({self.layout.size},)")
        return mean + self.perturbation(member_index)


def synthetic_initial_subspace(
    layout: FieldLayout,
    shape2d: tuple[int, int],
    nz: int,
    rank: int = 30,
    seed: int = 0,
) -> ErrorSubspace:
    """Build an initial error subspace from correlated random fields.

    In the paper the initial subspace comes from a posterior error nowcast
    of the previous assimilation cycle; for cold starts (and twin
    experiments) we synthesize one: draw smooth random perturbation states,
    normalize, and take the dominant SVD modes.

    Parameters
    ----------
    layout:
        State layout; every field in it is perturbed.
    shape2d:
        Horizontal grid shape ``(ny, nx)`` shared by all fields.
    nz:
        Number of levels of 3-D fields in the layout.
    rank:
        Number of retained modes, estimated from ``2 * rank`` draws of
        ``FIELD_AMPLITUDES``-scaled fields with correlation length
        ``LENGTH_SCALE_CELLS``.
    seed:
        Seed for the construction.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    n_samples = 2 * rank
    rng = np.random.default_rng(seed)
    grf = GaussianRandomField2D(shape2d, LENGTH_SCALE_CELLS, rng=rng)
    z_decay = np.exp(-np.arange(nz) / max(nz / 2.0, 1.0))

    columns = np.empty((layout.size, n_samples))
    for s in range(n_samples):
        fields: dict[str, np.ndarray] = {}
        for spec in layout.specs:
            amp = FIELD_AMPLITUDES.get(spec.name, spec.scale)
            if len(spec.shape) == 2:
                fields[spec.name] = amp * grf.sample()
            else:
                stack = grf.sample_many(spec.shape[0])
                fields[spec.name] = amp * stack * z_decay[: spec.shape[0], None, None]
        columns[:, s] = layout.normalize(layout.pack(fields))

    u, sig, _ = truncated_svd(columns, rank=rank)
    return ErrorSubspace(
        modes=u, sigmas=sig / np.sqrt(n_samples - 1), n_samples=n_samples
    )
