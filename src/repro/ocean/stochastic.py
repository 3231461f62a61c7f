"""Stochastic model-error (Wiener) forcing.

Paper Sec 3.1: the ocean model is deterministic-stochastic, ``dx = M(x,t)
dt + d(eta)`` with ``eta ~ N(0, Q(t))`` white in time after state
augmentation.  Discretely, each step adds ``sqrt(dt) * q * w`` where ``w``
is a spatially correlated unit-variance field: white in time, smooth in
space, the standard Euler-Maruyama treatment of the Wiener increment.

Each ensemble member owns an independent generator keyed by its
perturbation index (see :mod:`repro.util.rng`), so members are reproducible
regardless of scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ocean.grid import OceanGrid
from repro.util.randomfields import GaussianRandomField2D
from repro.util.rng import SeedSequenceStream


def _default_forcing_rng() -> np.random.Generator:
    """Deterministic fallback stream for forcing built without an rng."""
    return SeedSequenceStream(0).rng("ocean", "stochastic-forcing")


@dataclass
class BatchedStochasticForcing:
    """Vectorized Wiener forcing for a whole ensemble batch.

    One step's increments are one block per member with rows
    ``u, v, eta, T[0..nz), S[0..nz)``, which is also the order the member's
    generator is consumed in.  Each generator fills its member's block of
    white coefficients with one draw -- ``dy x dx`` per row, the field's
    own degrees of freedom, not one deviate per grid point; one synthesis
    (:meth:`~repro.util.randomfields.GaussianRandomField2D.synthesize`,
    bit-identical with or without leading batch axes) and one multiply by
    a precomputed amplitude x depth-decay x wet-mask array run over the
    whole batch, so member ``i`` gets bit-for-bit what it would get alone.
    The coefficient buffer is kept between steps: one batch owns its forcing.

    Parameters
    ----------
    grid:
        Ocean grid.
    rngs:
        One generator per ensemble member, in batch order (key them by
        perturbation index via :func:`repro.util.rng.member_rng`).
    momentum_amplitude:
        Std-dev of the momentum noise in (m/s^2) * sqrt(s); forces u and v.
    eta_amplitude:
        Std-dev of the interface-height noise in m / sqrt(s); a step of
        ``dt`` seconds adds ``eta_amplitude * sqrt(dt)`` metres.
    tracer_amplitude:
        Std-dev of temperature noise (deg C / sqrt(s)).  Tracer noise
        decays with depth (mixed-layer/thermocline errors dominate) and
        salinity noise is 0.1x in psu, a typical hydrographic error ratio.
    length_scale_cells:
        Spatial correlation length of the noise in grid cells.
    """

    grid: OceanGrid
    rngs: list
    momentum_amplitude: float = 2.0e-7
    eta_amplitude: float = 2.0e-5
    tracer_amplitude: float = 2.0e-6
    length_scale_cells: float = 4.0

    def __post_init__(self):
        if not self.rngs:
            raise ValueError("need at least one member generator")
        for name in ("momentum_amplitude", "eta_amplitude", "tracer_amplitude"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # Used for its synthesis only; its generator is never drawn from.
        self._field = GaussianRandomField2D(
            self.grid.shape2d, self.length_scale_cells
        )
        z = np.asarray(self.grid.z_levels)
        tracer = self.tracer_amplitude * np.exp(-z / max(z[-1] * 0.5, 1.0))
        rows = np.concatenate(
            [[self.momentum_amplitude] * 2, [self.eta_amplitude], tracer, 0.1 * tracer]
        )
        self._weights = rows[:, None, None] * self.grid.mask
        self._scaled = (None, None)  # (dt, weights over that dt)
        self._white = np.empty(
            (self.count, len(rows), *self._field.coefficient_shape)
        )

    @property
    def count(self) -> int:
        """Number of ensemble members in the batch."""
        return len(self.rngs)

    def is_active(self) -> bool:
        """True when any noise amplitude is non-zero."""
        return (
            self.momentum_amplitude > 0
            or self.eta_amplitude > 0
            or self.tracer_amplitude > 0
        )

    def increments(self, dt: float) -> np.ndarray:
        """Wiener increments over ``dt`` seconds, shape ``(N, 3 + 2 nz, ny, nx)``."""
        for white, rng in zip(self._white, self.rngs):
            rng.standard_normal(out=white)
        if self._scaled[0] != dt:
            # Every row grows like sqrt(dt); the momentum rows are an
            # acceleration noise and carry another factor dt.
            weights = self._weights * np.sqrt(dt)
            weights[:2] *= dt
            self._scaled = (dt, weights)
        block = self._field.synthesize(self._white)
        block *= self._scaled[1]
        return block


@dataclass
class StochasticForcing:
    """Per-member stochastic forcing: a :class:`BatchedStochasticForcing` of one.

    Parameters
    ----------
    grid, momentum_amplitude, eta_amplitude, tracer_amplitude, length_scale_cells:
        As for :class:`BatchedStochasticForcing` (same defaults).
    rng:
        Member-specific generator (key it by perturbation index via
        :mod:`repro.util.rng`); defaults to a deterministic stream.
    """

    grid: OceanGrid
    momentum_amplitude: float = 2.0e-7
    eta_amplitude: float = 2.0e-5
    tracer_amplitude: float = 2.0e-6
    length_scale_cells: float = 4.0
    rng: np.random.Generator = field(default_factory=_default_forcing_rng)

    def __post_init__(self):
        self._batch = BatchedStochasticForcing(
            self.grid,
            [self.rng],
            self.momentum_amplitude,
            self.eta_amplitude,
            self.tracer_amplitude,
            self.length_scale_cells,
        )

    def is_active(self) -> bool:
        """True when any noise amplitude is non-zero."""
        return self._batch.is_active()

    def increments(self, dt: float) -> np.ndarray:
        """Wiener increments over ``dt`` seconds, shape ``(3 + 2 nz, ny, nx)``."""
        return self._batch.increments(dt)[0]

    @classmethod
    def quiet(cls, grid: OceanGrid) -> "StochasticForcing":
        """A zero-amplitude forcing (deterministic central forecast)."""
        return cls(
            grid,
            momentum_amplitude=0.0,
            eta_amplitude=0.0,
            tracer_amplitude=0.0,
        )
