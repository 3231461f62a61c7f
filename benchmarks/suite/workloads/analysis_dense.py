"""``analysis_dense``: a dense SST/SSH batch at AOSN-II scale.

Two ``ny x nx`` surface fields, one observation per cell of each, and an
error subspace of compactly supported modes (the construction of
``bench_localized_update``).  One body is one global analysis update, one
tiled Gaspari-Cohn update, one cold SVD of a full anomaly matrix and one
warm incremental SVD adding the last quarter of its columns.

Chosen because ``core`` (assimilation, subspace) and ``util.linalg`` do
all the work and ``ocean``/``workflow``/``products`` none: it is the one
place where a change to the analysis kernels shows undiluted.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np

from repro.core import (
    ErrorSubspace,
    FieldLayout,
    FieldSpec,
    GaspariCohnTaper,
    IncrementalSubspaceEstimator,
    TiledESSEAnalysis,
)
from repro.config import ExperimentConfig
from repro.obs import Observation, ObservationOperator
from repro.telemetry import NULL_RECORDER

import verify
from workloads.base import Verdict, Workload

FIELDS = (("ssh", 0.5), ("sst", 2.0))


def localized_subspace(layout, shape, rank, bump_radius, rng) -> ErrorSubspace:
    """Orthonormal modes from compactly supported bumps at random centres."""
    ny, nx = shape
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    cells = ny * nx
    columns = np.zeros((layout.size, rank))
    for k in range(rank):
        r2 = (jj - rng.uniform(0, ny)) ** 2 + (ii - rng.uniform(0, nx)) ** 2
        bump = np.exp(-r2 / (2.0 * (bump_radius / 2.5) ** 2))
        bump[r2 > bump_radius**2] = 0.0
        field = k % len(FIELDS)
        columns[field * cells : (field + 1) * cells, k] = bump.ravel()
    q, _ = np.linalg.qr(columns)
    return ErrorSubspace(modes=q, sigmas=np.geomspace(1.0, 0.25, rank), n_samples=200)


def dense_operator(layout, shape, observed, noise_std) -> ObservationOperator:
    """One observation per grid cell of every field, valued ``observed``."""
    ny, nx = shape
    observations = []
    for name, _ in FIELDS:
        noisy = observed[layout.slice_of(name)].reshape(ny, nx)
        for j in range(ny):
            for i in range(nx):
                observations.append(
                    Observation(
                        field=name,
                        level=0,
                        j=j,
                        i=i,
                        value=float(noisy[j, i]),
                        noise_std=noise_std,
                    )
                )
    return ObservationOperator(layout, observations)


def build_dense_case(shape, rank, bump_radius, noise_std, stream) -> dict:
    """Layout, subspace, in-subspace truth and dense operator from a stream."""
    layout = FieldLayout([FieldSpec(name, shape, scale=scale) for name, scale in FIELDS])
    subspace = localized_subspace(
        layout, shape, rank, bump_radius, stream.rng("analysis", "modes")
    )
    forecast = np.zeros(layout.size)
    coefficients = stream.rng("analysis", "truth").normal(0.0, 1.0, rank) * subspace.sigmas
    truth = forecast + layout.denormalize(subspace.modes @ coefficients)
    observed = truth + stream.rng("analysis", "obs-noise").normal(
        0.0, noise_std, size=truth.shape
    )
    return {
        "layout": layout,
        "subspace": subspace,
        "forecast": forecast,
        "truth": truth,
        "observed": observed,
        "noise_std": noise_std,
        "operator": dense_operator(layout, shape, observed, noise_std),
    }


def reference_mean(case) -> np.ndarray:
    """The benchmark's own posterior mean for the dense case.

    Every cell is observed once with the same noise, so in the benchmark's
    own terms the state is ``forecast + G a`` with ``a ~ N(0, diag(sigma^2))``
    and the data are ``observed = state + noise``; the posterior mean of
    ``a`` solves a ``p x p`` system.  No program code is involved.
    """
    subspace = case["subspace"]
    g = case["layout"].denormalize(subspace.modes)
    precision = np.diag(subspace.sigmas**-2.0) + g.T @ g / case["noise_std"] ** 2
    rhs = g.T @ (case["observed"] - case["forecast"]) / case["noise_std"] ** 2
    return case["forecast"] + g @ np.linalg.solve(precision, rhs)


def default_analysis(layout):
    """The analysis :class:`ESSEDriver` builds by default (the global one).

    Reached through :meth:`ExperimentConfig.build_driver` rather than by
    class name.  The layout is the one attribute of a model the driver
    reads for it; there is no ocean model in this workload.
    """
    return ExperimentConfig().build_driver(SimpleNamespace(layout=layout)).analysis


def tiled_analysis(layout, shape, tile_shape, taper_radius, energy_floor, task_runner=None):
    """The tiled Gaspari-Cohn analysis (tiles inline unless a runner is given)."""
    return TiledESSEAnalysis(
        layout,
        shape,
        tile_shape,
        taper=GaspariCohnTaper(taper_radius),
        local_energy_floor=energy_floor,
        task_runner=task_runner,
    )


def rmse_ratio(analysis_mean, forecast, truth) -> float:
    """RMSE(analysis, truth) / RMSE(forecast, truth) in physical units."""
    after = np.sqrt(np.mean((analysis_mean - truth) ** 2))
    before = np.sqrt(np.mean((forecast - truth) ** 2))
    return float(after / before)


def analysis_facts(case, global_result, tiled_result) -> dict:
    """Accuracy of both updates against the truth, the reference, each other."""
    forecast, truth = case["forecast"], case["truth"]
    increment = global_result.mean - forecast
    if "reference" not in case:
        case["reference"] = reference_mean(case)
    prior_variance = case["subspace"].variance_field()
    return {
        "finite": bool(
            np.all(np.isfinite(global_result.mean))
            and np.all(np.isfinite(tiled_result.mean))
            and np.all(np.isfinite(tiled_result.subspace.sigmas))
        ),
        "global_ref_rel_err": float(
            np.linalg.norm(global_result.mean - case["reference"])
            / np.linalg.norm(case["reference"] - forecast)
        ),
        "rmse_ratio_global": rmse_ratio(global_result.mean, forecast, truth),
        "rmse_ratio_tiled": rmse_ratio(tiled_result.mean, forecast, truth),
        "tiled_rel_err": float(
            np.sqrt(np.mean((tiled_result.mean - global_result.mean) ** 2))
            / np.sqrt(np.mean(increment**2))
        ),
        "tiled_variance_excess": float(
            np.max(tiled_result.subspace.variance_field() - prior_variance)
            / np.max(prior_variance)
        ),
    }


class AnalysisDense(Workload):
    """Global and tiled updates plus cold and warm SVD at full density."""

    name = "analysis_dense"

    def setup(self) -> None:
        """Modes, truth, dense operator, engines and the anomaly matrix."""
        size = self.size
        shape = tuple(size["field_shape"])
        self.case = build_dense_case(
            shape, size["rank"], size["bump_radius"], size["noise_std"], self.stream
        )
        self.global_engine = default_analysis(self.case["layout"])
        self.tiled_engine = tiled_analysis(
            self.case["layout"],
            shape,
            tuple(size["tile_shape"]),
            size["taper_radius"],
            size["energy_floor"],
        )
        # Columns of decaying amplitude, so the spectrum has dominant modes
        # like a real ensemble's (a flat one would defeat any truncation).
        columns = size["anomaly_columns"]
        self.anomalies = self.stream.rng("analysis", "anomalies").standard_normal(
            (self.case["layout"].size, columns)
        ) * np.geomspace(1.0, 0.05, columns)
        # The warm update needs a previous factorization to start from: the
        # estimator is primed once with all but the last columns, and every
        # repetition continues from a copy of that state.
        warm_from = columns - size["warm_columns"]
        self.primed_estimator = IncrementalSubspaceEstimator(
            rank=size["svd_rank"],
            energy=0.999,
            rank_buffer=16,
            guard_tol=1.0,
            rng=self.stream.rng("analysis", "estimator"),
        )
        self.primed_estimator.update(self.anomalies, warm_from, 1.0 / np.sqrt(warm_from - 1))

    def prepare(self) -> None:
        """Give the repetition its own copy of the primed estimator (untimed)."""
        self.estimator = copy.deepcopy(self.primed_estimator)

    def body(self, tracer, program_telemetry=None):
        """Global update, tiled update, cold SVD, warm SVD."""
        case = self.case
        global_engine = tracer.wrap(
            self.global_engine, "core", {"update": "core.analysis_global"}
        )
        tiled_engine = tracer.wrap(
            self.tiled_engine, "core", {"update": "core.analysis_tiled"}
        )
        # The tiled engine is the one part of this body with a telemetry hook.
        self.tiled_engine.telemetry = (
            NULL_RECORDER if program_telemetry is None else program_telemetry
        )
        args = (case["forecast"], case["subspace"], case["operator"])
        global_result = global_engine.update(*args)
        tiled_result = tiled_engine.update(*args)
        with tracer.span("core.svd_cold", "core"):
            cold = ErrorSubspace.from_anomalies(
                self.anomalies, rank=self.size["svd_rank"], energy=0.999
            )
        count = self.anomalies.shape[1]
        with tracer.span("core.svd_warm", "core"):
            warm = self.estimator.update(self.anomalies, count, 1.0 / np.sqrt(count - 1))
        return global_result, tiled_result, cold, warm

    def digest(self, output) -> dict:
        """Accuracy facts plus the SVD spectra's agreement."""
        global_result, tiled_result, cold, warm = output
        facts = analysis_facts(self.case, global_result, tiled_result)
        facts["svd_finite"] = bool(
            np.all(np.isfinite(cold.sigmas)) and np.all(np.isfinite(warm.sigmas))
        )
        # The cold SVD saw the raw columns, the warm one applied 1/sqrt(N-1).
        k = min(cold.rank, warm.rank, 8)
        cold_sigmas = cold.sigmas[:k] / np.sqrt(self.anomalies.shape[1] - 1)
        facts["svd_warm_rel_err"] = float(
            np.max(np.abs(warm.sigmas[:k] - cold_sigmas) / cold_sigmas)
        )
        return facts

    def check(self, digests: list[dict]) -> Verdict:
        """Both engines halve the error; tiled tracks global; variance shrinks."""
        failures = verify.check_analysis(digests)
        failed = sum(1 for d in digests if not (d["finite"] and d["svd_finite"]))
        skill = float(
            np.mean(
                [
                    1.0 - 0.5 * (d["rmse_ratio_global"] + d["rmse_ratio_tiled"])
                    for d in digests
                ]
            )
        )
        return Verdict(
            attempted=4 * len(digests),
            failed=failed,
            skill=min(max(skill, 0.0), 1.0),
            failures=failures,
        )
