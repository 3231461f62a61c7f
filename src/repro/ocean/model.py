"""The PE-model stand-in: shallow-water dynamics + tracer stack.

:class:`PEModel` plays the role of HOPS/`pemodel` in the paper's workflow:
given an initial :class:`ModelState` it integrates the deterministic-
stochastic ocean equations forward.  One model run *is* one many-task
singleton; the ESSE layer never looks inside.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.state import FieldLayout, FieldSpec
from repro.ocean.bathymetry import monterey_grid
from repro.ocean.dynamics import ShallowWaterDynamics
from repro.ocean.forcing import AtmosphericForcing
from repro.ocean.grid import OceanGrid
from repro.ocean.stochastic import StochasticForcing
from repro.ocean.tracers import TracerDynamics, climatological_profile


@dataclass
class ModelState:
    """Prognostic model state at one instant.

    Attributes
    ----------
    u, v:
        Layer velocity (m/s), shape ``(ny, nx)``.
    eta:
        Interface displacement (m), shape ``(ny, nx)``.
    temp, salt:
        Tracer stacks (deg C, psu), shape ``(nz, ny, nx)``.
    time:
        Model time in seconds since the experiment origin.
    """

    u: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    temp: np.ndarray
    salt: np.ndarray
    time: float = 0.0

    def copy(self) -> "ModelState":
        """Deep copy (fields are copied, time preserved)."""
        return ModelState(
            u=self.u.copy(),
            v=self.v.copy(),
            eta=self.eta.copy(),
            temp=self.temp.copy(),
            salt=self.salt.copy(),
            time=self.time,
        )

    def validate(self, grid: OceanGrid) -> None:
        """Raise ValueError when any field has the wrong shape or NaNs."""
        expected = {
            "u": grid.shape2d,
            "v": grid.shape2d,
            "eta": grid.shape2d,
            "temp": grid.shape3d,
            "salt": grid.shape3d,
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr[..., grid.mask])):
                raise ValueError(f"{name}: non-finite values over ocean points")


@dataclass
class EnsembleState:
    """A whole ensemble's prognostic state, batched along a leading axis.

    The batched twin of :class:`ModelState`: member ``i`` of the batch is
    the state ``(u[i], v[i], eta[i], temp[i], salt[i])``.  All members
    share one model time (ESSE ensembles are synchronous by
    construction: every member forecasts the same window).

    Attributes
    ----------
    u, v, eta:
        Batched 2-D fields, shape ``(N, ny, nx)``.
    temp, salt:
        Batched tracer stacks, shape ``(N, nz, ny, nx)``.
    time:
        Shared model time in seconds.
    """

    u: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    temp: np.ndarray
    salt: np.ndarray
    time: float = 0.0

    @property
    def count(self) -> int:
        """Number of members in the batch."""
        return int(self.u.shape[0])

    @classmethod
    def from_states(cls, states: list[ModelState]) -> "EnsembleState":
        """Stack per-member states (which must share one time) into a batch."""
        if not states:
            raise ValueError("need at least one member state")
        times = {float(s.time) for s in states}
        if len(times) > 1:
            raise ValueError(f"members disagree on model time: {sorted(times)}")
        return cls(
            u=np.stack([s.u for s in states]),
            v=np.stack([s.v for s in states]),
            eta=np.stack([s.eta for s in states]),
            temp=np.stack([s.temp for s in states]),
            salt=np.stack([s.salt for s in states]),
            time=states[0].time,
        )

    def member(self, position: int) -> ModelState:
        """Extract one member as a standalone :class:`ModelState` (copies)."""
        return ModelState(
            u=self.u[position].copy(),
            v=self.v[position].copy(),
            eta=self.eta[position].copy(),
            temp=self.temp[position].copy(),
            salt=self.salt[position].copy(),
            time=self.time,
        )

    def copy(self) -> "EnsembleState":
        """Deep copy (fields are copied, time preserved)."""
        return EnsembleState(
            u=self.u.copy(),
            v=self.v.copy(),
            eta=self.eta.copy(),
            temp=self.temp.copy(),
            salt=self.salt.copy(),
            time=self.time,
        )


def state_layout(grid: OceanGrid) -> FieldLayout:
    """The ESSE packing of a :class:`ModelState`.

    Normalization scales are typical mesoscale error magnitudes (0.1 m/s
    velocity, 2 m interface, 0.5 deg C, 0.05 psu) so the multivariate
    covariance is non-dimensional, as required before the ESSE SVD.
    """
    return FieldLayout(
        [
            FieldSpec("u", grid.shape2d, scale=0.1),
            FieldSpec("v", grid.shape2d, scale=0.1),
            FieldSpec("eta", grid.shape2d, scale=2.0),
            FieldSpec("temp", grid.shape3d, scale=0.5),
            FieldSpec("salt", grid.shape3d, scale=0.05),
        ]
    )


@dataclass(frozen=True)
class ModelConfig:
    """Numerical configuration of a :class:`PEModel` run."""

    dt: float = 400.0
    viscosity: float = 120.0
    diffusivity: float = 60.0
    h0: float = 150.0
    g_reduced: float = 0.03
    check_interval: int = 50  # steps between finite-value checks

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")


class PEModel:
    """Deterministic-stochastic ocean model over one grid.

    Parameters
    ----------
    grid:
        Ocean grid; defaults to the synthetic Monterey domain.
    config:
        Numerical parameters.
    forcing:
        Atmospheric forcing; defaults to the AOSN-II-like wind/heat product.
    noise:
        Stochastic model-error forcing; defaults to quiet (deterministic).
        Each ensemble member passes its own seeded forcing.
    """

    def __init__(
        self,
        grid: OceanGrid | None = None,
        config: ModelConfig | None = None,
        forcing: AtmosphericForcing | None = None,
        noise: StochasticForcing | None = None,
    ):
        self.grid = grid if grid is not None else monterey_grid()
        self.config = config if config is not None else ModelConfig()
        self.forcing = (
            forcing if forcing is not None else AtmosphericForcing(self.grid)
        )
        self.noise = noise if noise is not None else StochasticForcing.quiet(self.grid)
        self.dynamics = ShallowWaterDynamics(
            self.grid,
            h0=self.config.h0,
            g_reduced=self.config.g_reduced,
            viscosity=self.config.viscosity,
        )
        self.tracers = TracerDynamics(self.grid, diffusivity=self.config.diffusivity)
        self._sponge = self.dynamics.sponge_factors(self.config.dt)
        # Built once: pool threads share the model, so no step caches them.
        self._constants = self.dynamics.step_constants(self.config.dt, self._sponge)
        max_dt = self.dynamics.max_stable_dt(safety=0.9)
        if self.config.dt > max_dt:
            raise ValueError(
                f"dt={self.config.dt} s exceeds the CFL limit {max_dt:.1f} s"
            )
        self.layout = state_layout(self.grid)

    # -- state construction ----------------------------------------------

    def rest_state(self) -> ModelState:
        """State at rest with climatological stratification."""
        grid = self.grid
        t_prof, s_prof = climatological_profile(np.asarray(grid.z_levels))
        temp = grid.apply_mask(
            np.broadcast_to(t_prof[:, None, None], grid.shape3d).copy()
        )
        salt = grid.apply_mask(
            np.broadcast_to(s_prof[:, None, None], grid.shape3d).copy()
        )
        zeros = np.zeros(grid.shape2d)
        return ModelState(
            u=zeros.copy(), v=zeros.copy(), eta=zeros.copy(), temp=temp, salt=salt
        )

    def spun_up_state(self, days: float = 5.0) -> ModelState:
        """Rest state integrated for ``days`` to develop upwelling structure."""
        state = self.rest_state()
        return self.run(state, duration=days * 86400.0)

    # -- vector interface (used by ESSE) ----------------------------------

    def to_vector(self, state: ModelState) -> np.ndarray:
        """Pack a state into the augmented ESSE vector."""
        return self.layout.pack(
            {
                "u": state.u,
                "v": state.v,
                "eta": state.eta,
                "temp": state.temp,
                "salt": state.salt,
            }
        )

    def from_vector(self, vector: np.ndarray, time: float = 0.0) -> ModelState:
        """Unpack an ESSE vector into a (masked) model state."""
        fields = self.layout.unpack(vector)
        masked = {name: self.grid.apply_mask(fld) for name, fld in fields.items()}
        return ModelState(time=time, **masked)

    def ensemble_to_matrix(self, ensemble: EnsembleState) -> np.ndarray:
        """Pack a batch into an ``(state_dim, N)`` ESSE column matrix.

        Column ``j`` is bit-identical to ``to_vector(ensemble.member(j))``.
        """
        return self.layout.pack_many(  # shape: (state_dim, n_members) # dtype: float64
            {
                "u": ensemble.u,
                "v": ensemble.v,
                "eta": ensemble.eta,
                "temp": ensemble.temp,
                "salt": ensemble.salt,
            }
        )

    def ensemble_from_matrix(
        self, matrix: np.ndarray, time: float = 0.0
    ) -> EnsembleState:
        """Unpack an ``(state_dim, N)`` column matrix into a (masked) batch."""
        matrix = np.asarray(matrix)  # shape: (state_dim, n_members)
        fields = self.layout.unpack_many(matrix)
        masked = {name: self.grid.apply_mask(fld) for name, fld in fields.items()}
        return EnsembleState(time=time, **masked)

    # -- time stepping -----------------------------------------------------

    def _advance(self, state, noise):
        """The one step body: a :class:`ModelState` or a whole batch.

        Every operator works on the trailing grid axes and broadcasts over
        whatever leads them, so member ``i`` of a batch is bit-identical
        to stepping it alone.  ``noise`` supplies one increment block per
        step with rows ``u, v, eta, T[0..nz), S[0..nz)``.
        """
        dt = self.config.dt
        tau_x, tau_y = self.forcing.wind_stress(state.time)
        heat = self.forcing.heat_flux(state.time)

        u, v, eta, deta_dt = self.dynamics.step_dynamics(
            state.u, state.v, state.eta, tau_x, tau_y, self._constants
        )
        temp, salt = self.tracers.tendencies(
            state.temp, state.salt, state.u, state.v, deta_dt, heat
        )
        temp = np.multiply(temp, dt)
        temp += state.temp
        salt = np.multiply(salt, dt)
        salt += state.salt

        if noise is not None and noise.is_active():
            block = noise.increments(dt)
            nz = self.grid.nz
            u += block[..., 0, :, :]
            v += block[..., 1, :, :]
            eta += block[..., 2, :, :]
            temp += block[..., 3 : 3 + nz, :, :]
            salt += block[..., 3 + nz :, :, :]

        u, v, eta = self.dynamics.enforce_boundaries(u, v, eta, self._constants)
        return type(state)(u, v, eta, temp, salt, state.time + dt)

    def step(self, state: ModelState) -> ModelState:
        """One forward-backward step of length ``config.dt`` + Wiener forcing.

        Dynamics use the stable forward-backward/semi-implicit scheme (see
        :meth:`ShallowWaterDynamics.step_dynamics`); tracers use forward
        Euler, whose explicit advection is stabilized by the lateral
        diffusivity at the advective Courant numbers this model runs at.
        """
        return self._advance(state, self.noise)

    def run(
        self,
        state: ModelState,
        duration: float,
        callback=None,
    ) -> ModelState:
        """Integrate for ``duration`` seconds (rounded up to whole steps).

        Parameters
        ----------
        state:
            Initial condition (not modified).
        duration:
            Integration length in seconds; must be >= 0.
        callback:
            Optional ``callback(step_index, state)`` invoked after each step
            (used for trajectory capture and observation sampling).

        Raises
        ------
        FloatingPointError
            If the integration blows up (non-finite fields); ESSE treats
            this as a failed ensemble member, which the workflow tolerates.
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        n_steps = int(np.ceil(duration / self.config.dt))
        current = state.copy()
        # Blow-ups are detected below and reported as FloatingPointError
        # (a tolerated member failure in ESSE); the transient inf/nan
        # arithmetic on the way there is expected, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return self._run_steps(current, n_steps, callback)

    def _run_steps(self, current: ModelState, n_steps: int, callback) -> ModelState:
        for k in range(n_steps):
            current = self.step(current)
            if (k + 1) % self.config.check_interval == 0 or k == n_steps - 1:
                wet = self.grid.mask
                if not (
                    np.all(np.isfinite(current.u[wet]))
                    and np.all(np.isfinite(current.temp[..., wet]))
                ):
                    raise FloatingPointError(
                        f"model blow-up at t={current.time:.0f} s (step {k + 1})"
                    )
            if callback is not None:
                callback(k, current)
        return current

    # -- batched (vectorized) time stepping --------------------------------

    def step_ensemble(self, ensemble: EnsembleState, noise=None) -> EnsembleState:
        """One forward-backward step of a whole ensemble batch.

        The body of :meth:`step` on batched ``(N, ...)`` fields; member
        ``i`` of the result is bit-identical to stepping
        ``ensemble.member(i)`` serially with the matching forcing.

        Parameters
        ----------
        ensemble:
            The batch to advance (not modified).
        noise:
            Optional :class:`~repro.ocean.stochastic.BatchedStochasticForcing`
            whose member count matches the batch; None steps the
            deterministic dynamics only (the model's own per-member
            ``self.noise`` is *not* used here -- batched runs always pass
            their forcing explicitly).
        """
        if noise is not None and noise.is_active() and noise.count != ensemble.count:
            raise ValueError(
                f"forcing batch size {noise.count} != ensemble {ensemble.count}"
            )
        return self._advance(ensemble, noise)

    def run_ensemble(
        self,
        ensemble: EnsembleState,
        duration: float,
        noise=None,
    ) -> tuple[EnsembleState, dict[int, str]]:
        """Integrate a whole batch for ``duration`` seconds.

        The batched twin of :meth:`run` with per-member failure
        isolation: at every ``check_interval`` a per-member finiteness
        check runs over the wet points, and a member that blows up is
        recorded (with the same error string :meth:`run` would raise for
        it) and zeroed out -- the surviving members continue unperturbed,
        because no operator mixes members across the batch axis.

        Parameters
        ----------
        ensemble:
            Initial batch (not modified).
        duration:
            Integration length in seconds; must be >= 0.
        noise:
            Optional batched stochastic forcing (see :meth:`step_ensemble`).

        Returns
        -------
        (final, failed):
            The final batch and a mapping of batch *position* -> error
            message for members that blew up (their slices in ``final``
            are zeroed and meaningless).
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        n_steps = int(np.ceil(duration / self.config.dt))
        current = ensemble.copy()
        failed: dict[int, str] = {}
        wet = self.grid.mask
        # As in run(): transient inf/nan arithmetic on the way to a
        # detected blow-up is expected, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                current = self.step_ensemble(current, noise=noise)
                if (k + 1) % self.config.check_interval == 0 or k == n_steps - 1:
                    finite = np.isfinite(current.u[:, wet]).all(axis=1) & np.isfinite(
                        current.temp[:, :, wet]
                    ).all(axis=(1, 2))
                    for pos in np.flatnonzero(~finite):
                        pos = int(pos)
                        if pos in failed:
                            continue
                        failed[pos] = (
                            "FloatingPointError: model blow-up at "
                            f"t={current.time:.0f} s (step {k + 1})"
                        )
                        # Zero the lost member so its garbage cannot slow
                        # the remaining arithmetic; survivors are
                        # untouched (no cross-member operator exists).
                        for name in self.layout.names:
                            getattr(current, name)[pos] = 0.0
        return current, failed

    def with_noise(self, noise: StochasticForcing) -> "PEModel":
        """A clone with the given forcing, sharing the (constant-only) operators."""
        clone = copy.copy(self)
        clone.noise = noise
        return clone
