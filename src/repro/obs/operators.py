"""Sparse linear measurement operators H and noise models R.

An observation samples one scalar entry of the packed state vector
(field, level, grid point) with Gaussian noise.  The operator is stored as
an index vector, so applying ``H`` to a state or to a matrix of subspace
modes is a fancy-indexing gather -- O(p) per observation instead of a dense
``(p, n)`` matrix-vector product, which is what makes assimilating
O(10^4-10^5) observations into an O(10^5-10^7) state feasible (the
dimension regime quoted in paper Sec 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import FieldLayout


@dataclass(frozen=True)
class Observation:
    """One scalar measurement of a state-vector entry.

    Attributes
    ----------
    field:
        Name of the observed field in the layout (e.g. ``"temp"``).
    level:
        Depth-level index for 3-D fields; must be 0 for 2-D fields.
    j, i:
        Grid indices of the sample.
    value:
        Measured value (same units as the field).
    noise_std:
        Measurement-error standard deviation (>0).
    instrument:
        Free-form tag ("ctd", "auv", "glider", "sst"); used in diagnostics.
    """

    field: str
    level: int
    j: int
    i: int
    value: float
    noise_std: float
    instrument: str = "generic"

    def __post_init__(self):
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be > 0, got {self.noise_std}")
        if self.level < 0 or self.j < 0 or self.i < 0:
            raise ValueError("observation indices must be non-negative")


class ObservationOperator:
    """The (H, R, y) triple for one batch of observations.

    Parameters
    ----------
    layout:
        State-vector layout the observations index into.
    observations:
        Non-empty list of :class:`Observation`.

    Notes
    -----
    ``R`` is diagonal (measurement errors white across instruments, paper
    Sec 3.1), stored as the vector of variances.
    """

    def __init__(self, layout: FieldLayout, observations: list[Observation]):
        if not observations:
            raise ValueError("need at least one observation")
        self.layout = layout
        self.observations = tuple(observations)
        indices = np.empty(len(observations), dtype=np.intp)
        for k, obs in enumerate(observations):
            spec = layout.spec(obs.field)
            if len(spec.shape) == 1:
                if obs.level != 0 or obs.j != 0:
                    raise ValueError(
                        f"1-D field {obs.field!r} observed with level/j != 0"
                    )
                if obs.i >= spec.shape[0]:
                    raise ValueError(f"observation off-grid: {obs}")
                flat = obs.i
            elif len(spec.shape) == 2:
                if obs.level != 0:
                    raise ValueError(
                        f"2-D field {obs.field!r} observed with level={obs.level}"
                    )
                ny, nx = spec.shape
                if obs.j >= ny or obs.i >= nx:
                    raise ValueError(f"observation off-grid: {obs}")
                flat = obs.j * nx + obs.i
            elif len(spec.shape) == 3:
                nz, ny, nx = spec.shape
                if obs.level >= nz or obs.j >= ny or obs.i >= nx:
                    raise ValueError(f"observation off-grid: {obs}")
                flat = (obs.level * ny + obs.j) * nx + obs.i
            else:
                raise ValueError(
                    f"field {obs.field!r} has unsupported rank {len(spec.shape)}"
                )
            indices[k] = layout.slice_of(obs.field).start + flat
        self._indices = indices
        # Generators, not lists: m Python objects would stay in peak memory.
        m = len(observations)
        self.values = np.fromiter((o.value for o in observations), float, m)
        self.noise_var = np.fromiter((o.noise_std**2 for o in observations), float, m)
        # Read-only (j, i) per observation: what tile selection measures from.
        rows = ((o.j for o in observations), (o.i for o in observations))
        self.coords = np.stack([np.fromiter(r, float, m) for r in rows], axis=1)
        self.coords.flags.writeable = False

    @property
    def size(self) -> int:
        """Number of scalar observations."""
        return len(self.observations)

    @property
    def state_indices(self) -> np.ndarray:
        """Read-only indices into the packed state vector."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    def observe(self, state_vector: np.ndarray) -> np.ndarray:
        """Apply H: sample the state at the observation points."""
        state_vector = np.asarray(state_vector)
        if state_vector.shape != (self.layout.size,):
            raise ValueError(
                f"state vector shape {state_vector.shape} != ({self.layout.size},)"
            )
        return state_vector[self._indices]

    def observe_modes(self, modes: np.ndarray) -> np.ndarray:
        """Apply H to subspace modes: ``(n, p) -> (m, p)`` gather."""
        modes = np.asarray(modes)
        if modes.ndim != 2 or modes.shape[0] != self.layout.size:
            raise ValueError(
                f"modes must be ({self.layout.size}, p), got {modes.shape}"
            )
        return modes[self._indices, :]

    def innovation(self, state_vector: np.ndarray) -> np.ndarray:
        """Data-minus-forecast residual ``d = y - H x``."""
        return self.values - self.observe(state_vector)

    def perturbed_values(self, rng: np.random.Generator) -> np.ndarray:
        """Values plus a fresh draw of observation noise.

        Used by the ensemble update so posterior members carry consistent
        observation-error statistics (perturbed-observations analysis).
        """
        return self.values + rng.standard_normal(self.size) * np.sqrt(self.noise_var)

    def by_instrument(self) -> dict[str, int]:
        """Observation counts per instrument tag (diagnostics)."""
        counts: dict[str, int] = {}
        for obs in self.observations:
            counts[obs.instrument] = counts.get(obs.instrument, 0) + 1
        return counts
