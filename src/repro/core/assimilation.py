"""The ESSE analysis step: a Kalman update in the error subspace.

With forecast mean ``x_f``, error subspace ``(E, sigma)`` (normalized
coordinates) and observations ``(H, R, y)``, the update is the classic
minimum-variance analysis restricted to the subspace.  Writing
``G = H D E`` for the observed, de-normalized modes (``D`` the
de-normalization diagonal) and ``S = diag(sigma^2)``:

    x_a = x_f + D E S G^T (G S G^T + R)^{-1} (y - H x_f)
    S_a = S - S G^T (G S G^T + R)^{-1} G S

:func:`subspace_gain` evaluates both in *information form*,

    S_a = (S^{-1} + G^T R^{-1} G)^{-1},    coeffs = S_a G^T R^{-1} d,

from one Cholesky factorization of a ``p x p`` matrix, so the cost is
O(m p^2 + p^3) for m observations and subspace rank p -- never an O(m^3)
dense solve, which matters at the paper's m = O(10^4 - 10^5) observation
counts.  It is the only linear solve of the analysis and of the
coupled physical-acoustical update (:mod:`repro.acoustics.coupled`).

There is one update path (:meth:`ESSEAnalysis.update`): the state is
split into *locales* that each own a disjoint set of state entries,
every locale solves its own low-dimensional problem against the
observations it selects, and the results are refactorized into
orthonormal modes -- rank never grows, and posterior variance is never
larger than the (inflated) prior anywhere.  Tiles' posterior anomaly
rows are stitched into one ``n x p`` matrix ``M`` and factored by
:func:`repro.util.linalg.truncated_svd` (a ``p x p`` Gram eigensolve).
A locale owning every row has ``M = E B`` with a ``p x p`` factor ``B``;
the prior modes ``E`` are orthonormal (the ``ErrorSubspace`` contract),
so ``svd(M) = E svd(B)``: LAPACK factors ``B`` itself, no Gram matrix
squares its condition number, and ``E U_B`` is the one ``n x p`` product.
The paper's global analysis is the configuration with a single locale that
owns everything and selects every observation at unit weight;
:class:`TiledESSEAnalysis` configures the locales as grid tiles with
distance-tapered observation selection (:mod:`repro.core.localization`,
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
from repro.core.subspace import ANOMALY_RTOL, ErrorSubspace
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.core.tiling import TileDecomposition
from repro.telemetry.spans import NULL_RECORDER
from repro.util.linalg import lapack_svd, oriented_product, truncated_svd

if TYPE_CHECKING:  # avoid a core <-> obs import cycle; used as hints only
    from repro.obs.operators import ObservationOperator


def subspace_gain(
    g: np.ndarray,
    variances: np.ndarray,
    noise_var: np.ndarray,
    rhs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The subspace Kalman gain applied to ``rhs``, in information form.

    Parameters
    ----------
    g:
        Observed modes ``G``, shape ``(m, p)``.
    variances:
        Prior mode variances (the diagonal of ``S``), shape ``(p,)``,
        non-negative.
    noise_var:
        Diagonal of ``R``, shape ``(m,)``, all positive.
    rhs:
        Innovation(s), shape ``(m,)`` or ``(m, N)``.

    Returns
    -------
    ``(coeffs, s_post)``: the mode-space coefficients
    ``S G^T (G S G^T + R)^{-1} rhs`` with shape ``(p,)`` or ``(p, N)``,
    and the posterior mode covariance
    ``S_a = S - S G^T (G S G^T + R)^{-1} G S``, shape ``(p, p)``.

    Both come from one Cholesky factorization of the posterior precision
    ``S^{-1} + G^T R^{-1} G``, taken in the prior's own units
    (``Sigma = S^{1/2}``):

        T = I + Sigma G^T R^{-1} G Sigma,
        S_a = Sigma T^{-1} Sigma,    coeffs = Sigma T^{-1} Sigma G^T R^{-1} rhs

    -- the same numbers as the Woodbury form of the innovation-covariance
    inverse, without its ``(m, p)`` intermediates or a second
    factorization for ``S_a``.  ``T`` has eigenvalues >= 1 whatever the
    spread of the variances, and a zero-variance mode gets a zero
    coefficient instead of a division by zero.
    """
    whiten = 1.0 / np.sqrt(noise_var)
    gw = g * whiten[:, None]  # R^-1/2 G
    sigmas = np.sqrt(variances)
    # A matrix times its own transpose is a symmetric rank-k update:
    # half the flops of the general product G^T (R^-1 G).
    t = np.outer(sigmas, sigmas) * (gw.T @ gw)
    t[np.diag_indices_from(t)] += 1.0
    factor = scipy.linalg.cho_factor(t, lower=True)
    s_post = np.outer(sigmas, sigmas) * scipy.linalg.cho_solve(
        factor, np.eye(sigmas.size)
    )
    columns = rhs.reshape(rhs.shape[0], -1)  # (m, N); N = 1 for a vector
    projected = gw.T @ (columns * whiten[:, None])  # G^T R^-1 rhs
    coeffs = sigmas[:, None] * scipy.linalg.cho_solve(
        factor, sigmas[:, None] * projected
    )
    s_post = 0.5 * (s_post + s_post.T)  # symmetrize round-off
    return coeffs.reshape(sigmas.shape + rhs.shape[1:]), s_post


def _positive_variance_subspace(subspace: ErrorSubspace) -> ErrorSubspace:
    """Validated mode dropping shared by every update path.

    Zero-variance modes carry no uncertainty, and a posterior-to-prior
    ratio is undefined for them, so they are dropped up front.
    An empty subspace, or one where *every* mode is below the variance
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


def _refactorize(anomalies: np.ndarray, n_samples: int) -> ErrorSubspace:
    """Orthonormal, sign-oriented modes and descending sigmas of ``M = anomalies``.

    The shared factorization of :func:`repro.util.linalg.truncated_svd`:
    a ``p x p`` Gram eigensolve when ``M`` is tall and every kept sigma
    is above that route's trust floor, the LAPACK driver otherwise -- so
    a direction the eigensolve cannot tell from round-off is resolved and
    dropped, never normalized into a mode.  Rank never grows.
    """
    modes, sigmas, _ = truncated_svd(anomalies, rtol=ANOMALY_RTOL)
    return ErrorSubspace(modes=modes, sigmas=sigmas, n_samples=n_samples)


def _refactorize_factor(
    modes: np.ndarray, factor: np.ndarray, n_samples: int
) -> ErrorSubspace:
    """:func:`_refactorize` of ``modes @ factor`` for orthonormal ``modes``.

    The LAPACK SVD of the ``p x p`` factor, the same cut and orientation;
    the ``n x p`` product is formed once, as the posterior modes.
    """
    u, sigmas, vt = lapack_svd(factor, rtol=ANOMALY_RTOL)
    u = oriented_product(modes, u, vt)  # by the state-space mode's largest entry
    return ErrorSubspace(modes=u, sigmas=sigmas, n_samples=n_samples)


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


@dataclass(frozen=True)
class TileUpdate:
    """The result of one locale's (tile's) analysis.

    Attributes
    ----------
    tile_index:
        Index of the tile in the decomposition (0 for the single locale
        of the global configuration).
    kept_modes:
        Indices (into the prior mode axis) of the modes the local update
        retained after the local-energy truncation, shape ``(k,)``.
    mean_increment:
        Analysis-minus-forecast increment on the owned state entries,
        *normalized* coordinates, shape ``(n_t,)``.
    anomaly_block:
        Posterior anomaly rows ``(n_t, p)`` of the owned entries: the
        kept modes' prior anomalies contracted by the local update,
        dropped modes at their prior values.  The global locale returns
        the ``(p, p)`` factor ``B`` of its rows ``E B`` instead.
    n_observations:
        Observations the locale assimilated (after selection).
    inflation_factor:
        Sigma inflation factor the local update applied.
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


class ESSEAnalysis:
    """Assimilates observation batches into (mean, subspace) estimates.

    Constructed directly this is the paper's global analysis: one locale
    that owns every state entry, selects every observation with unit
    weight and keeps every mode, so any layout (gridded or not) works.
    :class:`TiledESSEAnalysis` configures the same engine with many
    locales.  Either way one update is

    - per locale (an independent closure handed to ``task_runner``): the
      inflation factor, the local-energy mode truncation,
      :func:`subspace_gain` on the selected observations with
      R-localized noise, the mean increment on the owned entries, and the
      owned rows of the anomaly matrix ``M = E diag(sigma)`` multiplied by
      ``W``, the symmetric square root of the local posterior-to-prior
      mode-covariance ratio with eigenvalues clipped to ``[0, 1]`` -- a
      contraction, so the posterior pointwise variance never exceeds the
      (inflated) prior anywhere;
    - a disjoint scatter of the increments and anomaly rows (each locale
      owns its state entries exclusively; locales without data, or whose
      task failed terminally, keep their prior);
    - one refactorization of ``M`` (of its ``p x p`` factor ``B``, for the
      global locale) into orthonormal, sign-oriented modes and sigmas.

    Parameters
    ----------
    layout:
        State layout (normalization scales).
    inflation:
        Sigma inflation applied to the *prior* subspace before the
        update; compensates sampling error in small ensembles.  A number
        is a constant factor (1.0 = none); an inflation model from
        :func:`~repro.core.localization.make_inflation` is used as is.

    Attributes
    ----------
    task_runner:
        ``runner(tasks) -> results`` executing the locale closures
        (default :func:`run_tiles_serial`); None entries in the result
        degrade those locales to their prior.
    telemetry, metrics:
        Span/event recorder (default records nothing) and optional
        :class:`~repro.telemetry.metrics.MetricsRegistry` fed tile
        counters per analysis.
    """

    def __init__(self, layout: FieldLayout, inflation=1.0):
        self.layout = layout
        self.inflation = (
            MultiplicativeInflation(inflation) if np.isscalar(inflation) else inflation
        )
        self.decomposition: TileDecomposition | None = None
        self.taper = None
        self.halo: float | None = None
        self.local_energy_floor = 0.0
        self.task_runner: Callable[[Sequence[Callable]], list] = run_tiles_serial
        self.telemetry = NULL_RECORDER
        self.metrics = None

    # -- internals ---------------------------------------------------------

    def _prepare(self, subspace: ErrorSubspace, operator: ObservationOperator):
        """Validated subspace and ``G = H D E``, its observed modes ``(m, p)``."""
        subspace = _positive_variance_subspace(subspace)
        g = operator.observe_modes(subspace.modes)  # a gather: a fresh array
        g *= self.layout.scales[operator.state_indices][:, None]
        return subspace, g

    def _locales(self, operator: ObservationOperator) -> list[tuple]:
        """``(index, owned, selected, weights)`` of every locale with data.

        ``owned`` indexes the packed state, ``selected`` the observation
        batch, and ``weights`` are the R-localization weights of the
        selected observations.
        """
        if self.decomposition is None:
            # The global analysis: no coordinates are consulted, so the
            # layout need not be gridded, and "everything" is a slice --
            # the locale works on views instead of gathered copies.
            return [(0, slice(None), slice(None), 1.0)]
        coords = observation_coords(operator)
        distances = self.decomposition.distances_to(coords[:, 0], coords[:, 1])
        locales = []
        for index, owned in enumerate(self._tile_indices):
            sel, weights = select_observations(
                distances[index], taper=self.taper, cutoff=self.halo
            )
            if sel.size:  # no local data: the prior is the analysis
                locales.append((index, owned, sel, weights))
        return locales

    def _locale_task(
        self,
        locale: tuple,
        modes: np.ndarray,
        sigmas: np.ndarray,
        g: np.ndarray,
        noise_var: np.ndarray,
        innovation: np.ndarray,
    ) -> Callable[[], TileUpdate]:
        """One locale's analysis as an independent, retryable closure."""
        index, owned, sel, weights = locale

        def task() -> TileUpdate:
            g_local = g[sel]  # (m_t, p)
            r_local = noise_var[sel] / weights  # R-localization
            innov_local = innovation[sel]
            factor = self.inflation.factor(innov_local, g_local, sigmas**2, r_local)
            sig_l = sigmas * factor
            e_owned = modes[owned]  # (n_t, p)
            kept = np.arange(sigmas.size)
            g_k, e_k, sig_k = g_local, e_owned, sig_l
            if self.local_energy_floor > 0.0:
                # Local mode truncation: a mode matters to this locale
                # only through its energy in the owned state block or in
                # the observation footprint; the rest is what
                # localization discards, and what makes each tile's
                # solve O(m_t p_t^2).  The dominant mode always stays.
                score = sig_l**2 * (
                    np.einsum("ij,ij->j", e_owned, e_owned)
                    + np.einsum("ij,ij->j", g_local, g_local)
                )
                kept = np.flatnonzero(score >= self.local_energy_floor * score.max())
                g_k, e_k, sig_k = g_local[:, kept], e_owned[:, kept], sig_l[kept]
            coeffs, s_post = subspace_gain(g_k, sig_k**2, r_local, innov_local)

            # The prior-relative contraction W = ratio^{1/2}, ratio =
            # Sigma^-1 S_post Sigma^-1 with eigenvalues clipped to
            # [0, 1]: applying W to the prior anomaly rows can only
            # shrink them, which is what makes the stitched posterior
            # variance <= prior pointwise.
            eigvals, eigvecs = scipy.linalg.eigh(s_post / np.outer(sig_k, sig_k))
            contraction = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, 1.0))) @ eigvecs.T
            block = sig_k[:, None] * contraction
            if isinstance(owned, slice):  # every row: E B, only B leaves
                anomaly = np.diag(sigmas)
                anomaly[np.ix_(kept, kept)] = block
            else:
                anomaly = e_k @ block
                if kept.size < sigmas.size:  # dropped modes keep their prior rows
                    contracted, anomaly = anomaly, e_owned * sigmas
                    anomaly[:, kept] = contracted
            return TileUpdate(
                tile_index=index,
                kept_modes=kept,
                mean_increment=e_k @ coeffs,  # normalized coords
                anomaly_block=anomaly,
                n_observations=innov_local.size,
                inflation_factor=float(factor),
            )

        return task

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

        Warns
        -----
        DegradedEnsembleWarning
            When locale tasks failed terminally; those locales keep their
            prior mean and anomalies.
        """
        forecast_mean = np.asarray(forecast_mean, dtype=np.float64)
        if forecast_mean.shape != (self.layout.size,):
            raise ValueError(
                f"forecast mean shape {forecast_mean.shape} != ({self.layout.size},)"
            )
        subspace, g = self._prepare(subspace, operator)
        modes, sigmas = subspace.modes, subspace.sigmas
        innovation = operator.innovation(forecast_mean)
        n_locales = 1 if self.decomposition is None else self.decomposition.n_tiles
        with self.telemetry.span(
            "analysis.update", tiles=n_locales, rank=subspace.rank, obs=operator.size
        ) as span:
            locales = self._locales(operator)
            results = self.task_runner(
                [
                    self._locale_task(
                        locale, modes, sigmas, g, operator.noise_var, innovation
                    )
                    for locale in locales
                ]
            )
            if len(results) != len(locales):
                raise RuntimeError(
                    f"task runner returned {len(results)} results "
                    f"for {len(locales)} tile tasks"
                )

            # Stitch: disjoint scatter of mean increments and (tiles)
            # posterior anomaly rows; entries no locale updated keep their
            # prior rows of M = E diag(sigma).  The global locale returns
            # the factor B of M = E B instead, or None to keep the prior.
            updated = [(loc[1], res) for loc, res in zip(locales, results) if res]
            n_failed = len(locales) - len(updated)
            increment_norm = np.zeros(self.layout.size)
            for owned, result in updated:
                increment_norm[owned] = result.mean_increment
            analysis_mean = forecast_mean + self.layout.denormalize(increment_norm)
            posterior = subspace
            if self.decomposition is None and updated:
                factor = updated[0][1].anomaly_block
                posterior = _refactorize_factor(modes, factor, subspace.n_samples)
            elif self.decomposition is not None:
                anomalies = np.empty_like(modes)
                at_prior = np.ones(self.layout.size, dtype=bool)
                for owned, result in updated:
                    anomalies[owned] = result.anomaly_block
                    at_prior[owned] = False
                anomalies[at_prior] = modes[at_prior] * sigmas
                posterior = _refactorize(anomalies, subspace.n_samples)

            counts = {
                "updated": len(locales) - n_failed,
                "skipped": n_locales - len(locales),
                "degraded": n_failed,
            }
            span.set(posterior_rank=posterior.rank, **counts)
            if self.metrics is not None:
                for name, count in counts.items():
                    self.metrics.counter(f"analysis.tiles_{name}", kind="tile").inc(count)
        if n_failed:
            warnings.warn(
                f"analysis degraded: {n_failed} tile(s) kept their prior "
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

        Raises
        ------
        ValueError
            On a shape mismatch, a degenerate subspace, or a localized
            configuration: members are updated with the global gain only.
        """
        if self.decomposition is not None:
            raise ValueError(
                "update_ensemble applies the global gain; "
                "it is not defined for a tiled (localized) analysis"
            )
        members = np.asarray(members, dtype=np.float64)
        if members.ndim != 2 or members.shape[1] != self.layout.size:
            raise ValueError(f"members must be (N, {self.layout.size})")
        subspace, g = self._prepare(subspace, operator)
        # Draw the perturbed observations member-by-member so the noise
        # stream order matches the historical per-member loop exactly,
        # then push all N innovations through a single gain instead of N
        # solves of the same system.
        perturbed = np.stack(
            [operator.perturbed_values(rng) for _ in range(members.shape[0])],
            axis=1,
        )  # (m, N)
        innovations = perturbed - operator.observe_modes(members.T)  # (m, N)
        factor = self.inflation.factor(
            innovations.mean(axis=1), g, subspace.variances, operator.noise_var
        )
        coeffs, _ = subspace_gain(
            g, (subspace.sigmas * factor) ** 2, operator.noise_var, innovations
        )  # (p, N)
        return members + self.layout.denormalize(subspace.modes @ coeffs).T


class TiledESSEAnalysis(ESSEAnalysis):
    """The analysis localized over grid tiles: many small updates, not one big one.

    The locales are the rectangular tiles of a
    :class:`~repro.core.tiling.TileDecomposition` of the horizontal grid;
    each tile selects the observations within its halo, weighted by a
    distance taper (:mod:`repro.core.localization`), and runs the update
    of :class:`ESSEAnalysis` on its *local* dominant modes.  With a
    single tile, no taper and unit inflation the configuration *is* the
    global one.

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
        State layout (normalization scales); every field must be gridded
        on ``grid_shape``.
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
        tiled analysis cheap on spatially localized subspaces.
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
        super().__init__(layout, 1.0 if inflation is None else inflation)
        self.decomposition = TileDecomposition(grid_shape, tile_shape)
        # Owned-index partition of the packed state, precomputed once
        # (also validates that every field is gridded on grid_shape).
        self._tile_indices = self.decomposition.state_indices(layout)
        self.taper = taper
        self.halo = halo
        self.local_energy_floor = float(local_energy_floor)
        if task_runner is not None:
            self.task_runner = task_runner
        if telemetry is not None:
            self.telemetry = telemetry
        self.metrics = metrics
