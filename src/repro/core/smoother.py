"""ESSE smoothing: correcting past states with future data.

The ESSE methodology covers "filtering and smoothing via Error Subspace
Statistical Estimation" (paper reference [16], Lermusiaux et al. 2002):
once observations at the forecast time t1 are available, the ensemble's
*cross-time* covariance lets them correct the estimate at the earlier time
t0 as well -- the statistical backbone of reanalysis.

The implementation exploits a property of this repository's ensembles:
member initial conditions are a pure function of (root seed, member
index), so the initial-time anomaly matrix can be *reconstructed exactly*
from the forecast result without having stored it -- the smoother needs no
extra I/O during the forward run, which is exactly how the paper's
file-based workflow would want it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from repro.core.assimilation import subspace_gain
from repro.core.driver import ForecastResult
from repro.core.perturbation import PerturbationGenerator
from repro.core.state import FieldLayout
from repro.core.subspace import ErrorSubspace
from repro.util.linalg import truncated_svd

if TYPE_CHECKING:
    from repro.obs.operators import ObservationOperator


@dataclass(frozen=True)
class SmootherResult:
    """Output of one smoothing update.

    Attributes
    ----------
    smoothed_initial_mean:
        Analysis of the t0 state using the t1 observations (physical
        units).
    initial_subspace:
        Posterior error subspace at t0.
    innovation_rms:
        RMS of the t1 innovation that drove the update.
    """

    smoothed_initial_mean: np.ndarray
    initial_subspace: ErrorSubspace
    innovation_rms: float


class ESSESmoother:
    """One-lag ESSE smoother over a :class:`ForecastResult`.

    Parameters
    ----------
    layout:
        State layout (normalization).
    root_seed:
        The seed the forecast's ensemble ran with (so initial member
        states can be reconstructed).
    inflation:
        Multiplicative anomaly inflation (>= 1).
    """

    def __init__(self, layout: FieldLayout, root_seed: int, inflation: float = 1.0):
        if inflation < 1.0:
            raise ValueError("inflation must be >= 1")
        self.layout = layout
        self.root_seed = int(root_seed)
        self.inflation = inflation

    def _initial_anomalies(
        self,
        initial_mean: np.ndarray,
        initial_subspace: ErrorSubspace,
        member_ids: tuple[int, ...],
    ) -> np.ndarray:
        """Reconstruct the normalized t0 anomaly matrix ``(n, N)/sqrt(N-1)``."""
        perturber = PerturbationGenerator(
            self.layout, initial_subspace, root_seed=self.root_seed
        )
        n = self.layout.size
        cols = np.empty((n, len(member_ids)))
        for c, member in enumerate(member_ids):
            cols[:, c] = self.layout.normalize(perturber.perturbation(member))
        return cols / np.sqrt(len(member_ids) - 1)

    def smooth(
        self,
        initial_mean: np.ndarray,
        initial_subspace: ErrorSubspace,
        forecast: ForecastResult,
        operator: "ObservationOperator",
    ) -> SmootherResult:
        """Update the t0 state with observations taken at forecast time t1.

        Parameters
        ----------
        initial_mean:
            The t0 mean state the forecast started from (physical units).
        initial_subspace:
            The error subspace used to perturb that state.
        forecast:
            Result of :meth:`ESSEDriver.forecast` from that state.
        operator:
            Observation batch valid at the forecast time.
        """
        initial_mean = np.asarray(initial_mean, dtype=np.float64)
        if initial_mean.shape != (self.layout.size,):
            raise ValueError(
                f"initial mean shape {initial_mean.shape} != ({self.layout.size},)"
            )
        if forecast.ensemble_size < 2:
            raise ValueError("smoothing needs an ensemble of >= 2 members")

        # normalized anomaly matrices at both times, same member order
        z0 = self._initial_anomalies(
            initial_mean, initial_subspace, forecast.member_ids
        )
        # forecast-time anomalies from the stored member states; the
        # central ModelState repacks through the layout's field names
        central_vec = self.layout.pack(
            {name: getattr(forecast.central, name) for name in self.layout.names}
        )
        n_members = forecast.member_forecasts.shape[0]
        z1 = np.empty((self.layout.size, n_members))
        for c in range(n_members):
            z1[:, c] = self.layout.normalize(
                forecast.member_forecasts[c] - central_vec
            )
        z1 /= np.sqrt(n_members - 1)
        z0 = z0 * self.inflation
        z1 = z1 * self.inflation

        # observed forecast anomalies G = H D Z1  (m, N)
        scales = self.layout.scales[operator.state_indices]
        g = operator.observe_modes(z1) * scales[:, None]
        innovation = operator.innovation(central_vec)

        # Member-space gain (prior member covariance S = I): the cross-time
        # increment is D Z0 G^T (G G^T + R)^-1 d = D Z0 coeffs, and the
        # posterior t0 covariance Z0 (I - G^T (G G^T + R)^-1 G) Z0^T =
        # Z0 post Z0^T, re-SVD'd below.
        coeffs, post = subspace_gain(
            g, np.ones(n_members), operator.noise_var, innovation
        )
        smoothed = initial_mean + self.layout.denormalize(z0 @ coeffs)
        eigvals, eigvecs = scipy.linalg.eigh(post)
        eigvals = np.clip(eigvals, 0.0, None)
        factor = z0 @ (eigvecs * np.sqrt(eigvals)[None, :])
        u, sig, _ = truncated_svd(factor, rtol=1e-12)
        subspace = ErrorSubspace(modes=u, sigmas=sig, n_samples=n_members)
        return SmootherResult(
            smoothed_initial_mean=smoothed,
            initial_subspace=subspace,
            innovation_rms=float(np.sqrt(np.mean(innovation**2))),
        )
