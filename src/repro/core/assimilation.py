"""The ESSE analysis step: a Kalman update in the error subspace.

With forecast mean ``x_f``, error subspace ``(E, sigma)`` (normalized
coordinates) and observations ``(H, R, y)``, the update is the classic
minimum-variance analysis restricted to the subspace:

    K   = D E S (H D E)^T [ (H D E) S (H D E)^T + R ]^{-1}
    x_a = x_f + K (y - H x_f)

where ``D`` is the de-normalization diagonal and ``S = diag(sigma^2)``.
The inverse is applied through the Sherman-Morrison-Woodbury identity, so
the cost is O(m p^2 + p^3) for m observations and subspace rank p -- never
an O(m^3) dense solve, which matters at the paper's m = O(10^4 - 10^5)
observation counts.

The posterior subspace comes from the eigendecomposition of the updated
p x p mode covariance -- rank never grows, and posterior variance is never
larger than the prior in any direction (a property the tests assert).

Two engines share that machinery: :class:`ESSEAnalysis` is the paper's
global update, and :class:`TiledESSEAnalysis` decomposes the same update
into independent grid tiles with distance-tapered observation selection
and per-tile inflation (:mod:`repro.core.localization`,
:mod:`repro.core.tiling`) -- the LETKF-style local analysis that makes
high-dimensional state vectors tractable (see ``docs/ASSIMILATION.md``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from typing import TYPE_CHECKING

from repro.core.localization import (
    MultiplicativeInflation,
    observation_coords,
    select_observations,
)
from repro.core.state import FieldLayout
from repro.core.subspace import ErrorSubspace
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.core.tiling import TileDecomposition
from repro.telemetry.spans import NULL_RECORDER

if TYPE_CHECKING:  # avoid a core <-> obs import cycle; used as hints only
    from repro.obs.operators import ObservationOperator


def _positive_variance_subspace(subspace: ErrorSubspace) -> ErrorSubspace:
    """Validated mode dropping shared by every update path.

    Zero-variance modes carry no uncertainty and would make ``S^-1``
    singular in the Woodbury core, so they are dropped up front.  An
    empty subspace, or one where *every* mode is below the variance
    floor, cannot support an analysis at all and raises instead of
    silently producing a rank-0 update.

    Raises
    ------
    ValueError
        On an empty subspace or one with no positive-variance modes.
    """
    if subspace.rank == 0:
        raise ValueError("cannot assimilate with an empty subspace")
    positive = subspace.sigmas > 1e-14 * max(float(subspace.sigmas[0]), 1e-300)
    if not np.any(positive):
        raise ValueError("subspace has no positive-variance modes")
    if np.all(positive):
        return subspace
    return ErrorSubspace(
        modes=subspace.modes[:, positive],
        sigmas=subspace.sigmas[positive],
        n_samples=subspace.n_samples,
    )


def _solve_innovation_cov_impl(
    hde: np.ndarray,
    variances: np.ndarray,
    noise_var: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Apply ``[(HDE) S (HDE)^T + R]^{-1}`` to columns of ``rhs``.

    Woodbury with diagonal R:
    ``S_inv_rhs = R^-1 rhs - R^-1 (HDE) [S^-1 + (HDE)^T R^-1 (HDE)]^-1
    (HDE)^T R^-1 rhs``.
    """
    rhs_2d = rhs if rhs.ndim == 2 else rhs[:, None]
    r_inv = 1.0 / noise_var
    a = hde * r_inv[:, None]  # R^-1 (HDE), (m, p)
    core = np.diag(1.0 / variances) + hde.T @ a  # (p, p)
    rhs_r = rhs_2d * r_inv[:, None]
    out = rhs_r - a @ scipy.linalg.solve(core, hde.T @ rhs_r, assume_a="pos")
    return out if rhs.ndim == 2 else out[:, 0]


@dataclass(frozen=True)
class AnalysisResult:
    """Output of one ESSE assimilation.

    Attributes
    ----------
    mean:
        Analysis mean state (physical units), shape ``(n,)``.
    subspace:
        Posterior error subspace (normalized coordinates).
    innovation:
        Data-minus-forecast residual, shape ``(m,)``.
    analysis_residual:
        Data-minus-analysis residual, shape ``(m,)``.
    """

    mean: np.ndarray
    subspace: ErrorSubspace
    innovation: np.ndarray
    analysis_residual: np.ndarray

    @property
    def innovation_rms(self) -> float:
        """RMS of the prior residual."""
        return float(np.sqrt(np.mean(self.innovation**2)))

    @property
    def analysis_rms(self) -> float:
        """RMS of the posterior residual (should not exceed the prior's)."""
        return float(np.sqrt(np.mean(self.analysis_residual**2)))


class ESSEAnalysis:
    """Assimilates observation batches into (mean, subspace) estimates.

    Parameters
    ----------
    layout:
        State layout (normalization scales).
    inflation:
        Multiplicative sigma inflation applied to the *prior* subspace
        before the update; compensates sampling error in small ensembles
        (1.0 = none).
    """

    def __init__(self, layout: FieldLayout, inflation: float = 1.0):
        if inflation < 1.0:
            raise ValueError("inflation must be >= 1")
        self.layout = layout
        self.inflation = inflation

    # -- internals ---------------------------------------------------------

    def _observed_modes(
        self, subspace: ErrorSubspace, operator: ObservationOperator
    ) -> np.ndarray:
        """H D E: observe the de-normalized modes, shape ``(m, p)``."""
        scales = self.layout.scales[operator.state_indices]
        return operator.observe_modes(subspace.modes) * scales[:, None]

    def _solve_innovation_cov(
        self,
        hde: np.ndarray,
        variances: np.ndarray,
        noise_var: np.ndarray,
        rhs: np.ndarray,
    ) -> np.ndarray:
        """Apply ``[(HDE) S (HDE)^T + R]^{-1}`` to columns of ``rhs``."""
        return _solve_innovation_cov_impl(hde, variances, noise_var, rhs)

    # -- public API -----------------------------------------------------------

    def update(
        self,
        forecast_mean: np.ndarray,
        subspace: ErrorSubspace,
        operator: ObservationOperator,
    ) -> AnalysisResult:
        """One ESSE analysis: mean update + posterior subspace.

        Raises
        ------
        ValueError
            On dimension mismatches or an empty subspace.
        """
        forecast_mean = np.asarray(forecast_mean, dtype=np.float64)
        if forecast_mean.shape != (self.layout.size,):
            raise ValueError(
                f"forecast mean shape {forecast_mean.shape} != ({self.layout.size},)"
            )
        subspace = _positive_variance_subspace(subspace)

        sigmas = subspace.sigmas * self.inflation
        variances = sigmas**2
        hde = self._observed_modes(subspace, operator)

        innovation = operator.innovation(forecast_mean)
        solved = self._solve_innovation_cov(
            hde, variances, operator.noise_var, innovation
        )
        # K d = D E S (HDE)^T solved
        coeffs = variances * (hde.T @ solved)  # (p,)
        mean_increment = self.layout.denormalize(subspace.modes @ coeffs)
        analysis_mean = forecast_mean + mean_increment

        # Posterior mode covariance: S_a = S - S (HDE)^T Sinv (HDE) S
        shd = hde * variances[None, :]  # (HDE) S, (m, p)
        middle = self._solve_innovation_cov(
            hde, variances, operator.noise_var, shd
        )  # Sinv (HDE) S
        s_post = np.diag(variances) - shd.T @ middle
        s_post = 0.5 * (s_post + s_post.T)  # symmetrize round-off
        eigvals, eigvecs = scipy.linalg.eigh(s_post)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        eigvecs = eigvecs[:, order]
        posterior = ErrorSubspace(
            modes=subspace.modes @ eigvecs,
            sigmas=np.sqrt(eigvals),
            n_samples=subspace.n_samples,
        )
        return AnalysisResult(
            mean=analysis_mean,
            subspace=posterior,
            innovation=innovation,
            analysis_residual=operator.innovation(analysis_mean),
        )

    def update_ensemble(
        self,
        members: np.ndarray,
        subspace: ErrorSubspace,
        operator: ObservationOperator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Perturbed-observation update of individual members.

        Parameters
        ----------
        members:
            Member states, shape ``(N, n)`` (physical units).
        subspace:
            Prior subspace used for the gain.
        operator:
            Observation batch.
        rng:
            Noise generator for the perturbed observations.

        Returns
        -------
        Updated members, shape ``(N, n)``.
        """
        members = np.asarray(members, dtype=np.float64)
        if members.ndim != 2 or members.shape[1] != self.layout.size:
            raise ValueError(f"members must be (N, {self.layout.size})")
        subspace = _positive_variance_subspace(subspace)
        sigmas = subspace.sigmas * self.inflation
        variances = sigmas**2
        hde = self._observed_modes(subspace, operator)
        # Draw the perturbed observations member-by-member so the noise
        # stream order matches the historical per-member loop exactly,
        # then push all N innovations through a single Woodbury solve
        # instead of N solves of the same system.
        perturbed = np.stack(
            [operator.perturbed_values(rng) for _ in range(members.shape[0])],
            axis=1,
        )  # (m, N)
        innovations = perturbed - operator.observe_modes(members.T)  # (m, N)
        solved = self._solve_innovation_cov(
            hde, variances, operator.noise_var, innovations
        )
        coeffs = variances[:, None] * (hde.T @ solved)  # (p, N)
        return members + self.layout.denormalize(subspace.modes @ coeffs).T


@dataclass(frozen=True)
class TileUpdate:
    """The result of one tile's local analysis.

    Attributes
    ----------
    tile_index:
        Index of the tile in the decomposition.
    kept_modes:
        Indices (into the prior mode axis) of the modes the tile's local
        update retained after the local-energy truncation, shape ``(k,)``.
    mean_increment:
        Analysis-minus-forecast increment on the tile's owned state
        entries, *normalized* coordinates, shape ``(n_t,)``.
    anomaly_block:
        Posterior anomaly rows ``(n_t, k)`` for the kept modes (prior
        anomalies contracted by the local update); rows for dropped
        modes keep their prior values.
    n_observations:
        Observations the tile assimilated (after selection).
    inflation_factor:
        Sigma inflation factor the tile's update applied.
    """

    tile_index: int
    kept_modes: np.ndarray
    mean_increment: np.ndarray
    anomaly_block: np.ndarray
    n_observations: int
    inflation_factor: float


def run_tiles_serial(tasks: Sequence[Callable[[], TileUpdate]]) -> list:
    """Default in-process tile runner: run every task in order, fail fast.

    The fault-tolerant alternative is
    :class:`repro.workflow.pool.TileTaskPool`, whose ``run`` method
    has the same signature but retries/replaces failing tile tasks and
    returns None for tiles whose retries were exhausted.
    """
    return [task() for task in tasks]


class TiledESSEAnalysis:
    """Localized, tiled ESSE analysis: many small updates instead of one big one.

    The horizontal grid is covered by rectangular tiles
    (:class:`~repro.core.tiling.TileDecomposition`); each tile selects
    the observations within its halo (weighted by a distance taper,
    :mod:`repro.core.localization`), runs the same Woodbury subspace
    update as :class:`ESSEAnalysis` on its *local* dominant modes, and
    the per-tile results are recombined into one seam-consistent
    posterior ``(mean, subspace)``:

    - the mean increments are disjoint scatter-writes (each tile owns its
      state entries exclusively);
    - the posterior covariance is carried as the anomaly matrix
      ``M = E diag(sigma)``; each tile replaces its owned rows by
      ``M_t W_t`` where ``W_t`` is the symmetric square root of the
      local posterior-to-prior mode-covariance ratio with eigenvalues
      clipped to ``[0, 1]`` -- a contraction, so the posterior pointwise
      variance never exceeds the prior anywhere (with unit inflation);
    - one final ``p x p`` eigensolve of ``M^T M`` refactorizes ``M`` into
      orthonormal modes and descending sigmas.

    With a single tile, no taper and default inflation this reproduces
    :meth:`ESSEAnalysis.update` (identical mean; same sigmas and
    covariance, modes up to rotation) -- the equivalence is test-enforced.

    Tile tasks are independent closures executed by ``task_runner``; the
    default runs them serially in-process, and
    :class:`repro.workflow.pool.TileTaskPool` runs them with the
    fault-tolerant member-pool semantics (retry with backoff, straggler
    cancel-and-replace, fault injection).  A tile whose retries are
    exhausted keeps its prior state (mean and anomalies) and raises
    :class:`~repro.core.taskmodel.DegradedEnsembleWarning`.

    Parameters
    ----------
    layout:
        State layout (normalization scales).
    grid_shape:
        Horizontal grid shape ``(ny, nx)`` shared by every field.
    tile_shape:
        Nominal tile shape ``(tile_ny, tile_nx)``.
    taper:
        Distance taper for observation selection and R-localization
        (:func:`~repro.core.localization.make_taper`); None selects by
        ``halo`` alone with unit weights.
    halo:
        Hard selection radius in grid cells applied on top of (or, with
        no taper, instead of) the taper support; None means no hard cap.
    inflation:
        Inflation model applied per tile
        (:func:`~repro.core.localization.make_inflation`); default is
        none (multiplicative factor 1).
    local_energy_floor:
        Relative floor for the per-tile mode truncation: a tile keeps the
        modes whose local energy (state block + observation footprint)
        is at least this fraction of the locally dominant mode's.  0
        keeps every mode; small values (0.01-0.05) are what make the
        tiled analysis cheaper than the global one on spatially
        localized subspaces.
    task_runner:
        ``runner(tasks) -> results`` executing the tile closures; None
        entries in the result degrade those tiles to their prior.
    telemetry:
        Span/event recorder (default records nothing).
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` fed
        tile counters per analysis.
    """

    def __init__(
        self,
        layout: FieldLayout,
        grid_shape: tuple[int, int],
        tile_shape: tuple[int, int] = (16, 16),
        *,
        taper=None,
        halo: float | None = None,
        inflation=None,
        local_energy_floor: float = 0.0,
        task_runner: Callable[[Sequence[Callable]], list] | None = None,
        telemetry=None,
        metrics=None,
    ):
        if not 0.0 <= local_energy_floor < 1.0:
            raise ValueError(
                f"local_energy_floor must be in [0, 1), got {local_energy_floor}"
            )
        if halo is not None and halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        self.layout = layout
        self.decomposition = TileDecomposition(grid_shape, tile_shape)
        self.taper = taper
        self.halo = halo
        self.inflation = (
            inflation if inflation is not None else MultiplicativeInflation(1.0)
        )
        self.local_energy_floor = float(local_energy_floor)
        self.task_runner = task_runner if task_runner is not None else run_tiles_serial
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        # Owned-index partition of the packed state, precomputed once
        # (also validates that every field is gridded on grid_shape).
        self._tile_indices = self.decomposition.state_indices(layout)

    # -- internals ---------------------------------------------------------

    def _make_tile_task(
        self,
        owned: np.ndarray,
        sel: np.ndarray,
        weights: np.ndarray,
        tile_index: int,
        modes: np.ndarray,
        sigmas: np.ndarray,
        hde: np.ndarray,
        noise_var: np.ndarray,
        innovation: np.ndarray,
    ) -> Callable[[], TileUpdate]:
        """One tile's local analysis as an independent, retryable closure."""

        def task() -> TileUpdate:
            hde_local = hde[sel]  # (m_t, p)
            r_local = noise_var[sel] / weights  # R-localization
            innov_local = innovation[sel]
            factor = self.inflation.factor(
                innov_local, hde_local, sigmas**2, r_local
            )
            sig_l = sigmas * factor
            var_l = sig_l**2
            e_owned = modes[owned, :]  # (n_t, p)
            # Local mode truncation: a mode matters to this tile only
            # through its energy in the owned state block or in the
            # observation footprint; the rest is what localization
            # discards, and what makes each tile's solve O(m_t p_t^2).
            score = var_l * (
                np.einsum("ij,ij->j", e_owned, e_owned)
                + np.einsum("ij,ij->j", hde_local, hde_local)
            )
            if self.local_energy_floor > 0.0:
                keep = score >= self.local_energy_floor * float(score.max())
                if not np.any(keep):
                    keep[int(np.argmax(score))] = True
                kept = np.flatnonzero(keep)
            else:
                kept = np.arange(sigmas.size)
            hde_k = hde_local[:, kept]
            var_k = var_l[kept]
            sig_k = sig_l[kept]

            # One factorization serves both the mean update and the
            # posterior covariance: solve against [d | (HDE)S] jointly
            # instead of building the Woodbury core twice.
            shd = hde_k * var_k[None, :]
            joint = _solve_innovation_cov_impl(
                hde_k, var_k, r_local,
                np.concatenate([innov_local[:, None], shd], axis=1),
            )
            solved, middle = joint[:, 0], joint[:, 1:]
            coeffs = var_k * (hde_k.T @ solved)
            increment = e_owned[:, kept] @ coeffs  # normalized coords

            # Local posterior mode covariance, then its prior-relative
            # contraction W = G^{1/2}, G = Sigma^-1 S_post Sigma^-1 with
            # eigenvalues clipped to [0, 1]: applying W to the prior
            # anomaly rows can only shrink them, which is what makes the
            # stitched posterior variance <= prior pointwise.
            s_post = np.diag(var_k) - shd.T @ middle
            s_post = 0.5 * (s_post + s_post.T)
            ratio = s_post / np.outer(sig_k, sig_k)
            eigvals, eigvecs = scipy.linalg.eigh(ratio)
            eigvals = np.clip(eigvals, 0.0, 1.0)
            contraction = (eigvecs * np.sqrt(eigvals)[None, :]) @ eigvecs.T
            anomaly = (e_owned[:, kept] * sig_k[None, :]) @ contraction
            return TileUpdate(
                tile_index=tile_index,
                kept_modes=kept,
                mean_increment=increment,
                anomaly_block=anomaly,
                n_observations=int(sel.size),
                inflation_factor=float(factor),
            )

        return task

    # -- public API --------------------------------------------------------

    def update(
        self,
        forecast_mean: np.ndarray,
        subspace: ErrorSubspace,
        operator: ObservationOperator,
    ) -> AnalysisResult:
        """One tiled ESSE analysis: local updates + seam-consistent stitch.

        Raises
        ------
        ValueError
            On dimension mismatches or an empty subspace.

        Warns
        -----
        DegradedEnsembleWarning
            When tile tasks failed terminally; those tiles keep their
            prior mean and anomalies.
        """
        forecast_mean = np.asarray(forecast_mean, dtype=np.float64)
        if forecast_mean.shape != (self.layout.size,):
            raise ValueError(
                f"forecast mean shape {forecast_mean.shape} != ({self.layout.size},)"
            )
        subspace = _positive_variance_subspace(subspace)
        modes = subspace.modes
        sigmas = subspace.sigmas
        innovation = operator.innovation(forecast_mean)
        with self.telemetry.span(
            "analysis.tiled",
            tiles=self.decomposition.n_tiles,
            rank=subspace.rank,
            obs=operator.size,
        ) as span:
            scales = self.layout.scales[operator.state_indices]
            hde = operator.observe_modes(modes) * scales[:, None]
            coords = observation_coords(operator)

            tasks: list[Callable[[], TileUpdate]] = []
            task_owned: list[np.ndarray] = []
            n_skipped = 0
            all_distances = self.decomposition.distances_to(
                coords[:, 0], coords[:, 1]
            )
            for tile, owned in zip(self.decomposition.tiles, self._tile_indices):
                sel, weights = select_observations(
                    all_distances[tile.index], taper=self.taper, cutoff=self.halo
                )
                if sel.size == 0:
                    n_skipped += 1  # no local data: the prior is the analysis
                    continue
                tasks.append(
                    self._make_tile_task(
                        owned, sel, weights, tile.index,
                        modes, sigmas, hde, operator.noise_var, innovation,
                    )
                )
                task_owned.append(owned)

            results = self.task_runner(tasks)
            if len(results) != len(tasks):
                raise RuntimeError(
                    f"task runner returned {len(results)} results "
                    f"for {len(tasks)} tile tasks"
                )

            # Stitch: disjoint scatter of mean increments and posterior
            # anomaly rows into the prior anomaly matrix M = E diag(sigma).
            anomalies = modes * sigmas[None, :]
            increment_norm = np.zeros(self.layout.size)
            n_failed = 0
            for owned, result in zip(task_owned, results):
                if result is None:
                    n_failed += 1  # degraded: this tile keeps its prior
                    continue
                increment_norm[owned] = result.mean_increment
                anomalies[np.ix_(owned, result.kept_modes)] = result.anomaly_block
            analysis_mean = forecast_mean + self.layout.denormalize(increment_norm)

            # Refactorize M into orthonormal modes / descending sigmas via
            # the p x p Gram eigensolve (rank never grows).
            gram = anomalies.T @ anomalies
            gram = 0.5 * (gram + gram.T)
            eigvals, eigvecs = scipy.linalg.eigh(gram)
            order = np.argsort(eigvals)[::-1]
            eigvals = np.clip(eigvals[order], 0.0, None)
            eigvecs = eigvecs[:, order]
            positive = eigvals > eigvals[0] * 1e-28 if eigvals.size else eigvals > 0
            eigvals = eigvals[positive]
            eigvecs = eigvecs[:, positive]
            sig_post = np.sqrt(eigvals)
            post_modes = (anomalies @ eigvecs) / sig_post[None, :]
            posterior = ErrorSubspace(
                modes=post_modes, sigmas=sig_post, n_samples=subspace.n_samples
            )

            span.set(
                updated=len(tasks) - n_failed,
                skipped=n_skipped,
                degraded=n_failed,
                posterior_rank=posterior.rank,
            )
            if self.metrics is not None:
                self.metrics.counter("analysis.tiles_updated", kind="tile").inc(
                    len(tasks) - n_failed
                )
                self.metrics.counter("analysis.tiles_skipped", kind="tile").inc(
                    n_skipped
                )
                self.metrics.counter("analysis.tiles_degraded", kind="tile").inc(
                    n_failed
                )
        if n_failed:
            warnings.warn(
                f"tiled analysis degraded: {n_failed} tile(s) kept their prior "
                "after tile-task retries were exhausted "
                "(see docs/ASSIMILATION.md)",
                DegradedEnsembleWarning,
                stacklevel=2,
            )
        return AnalysisResult(
            mean=analysis_mean,
            subspace=posterior,
            innovation=innovation,
            analysis_residual=operator.innovation(analysis_mean),
        )
