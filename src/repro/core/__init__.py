"""ESSE core: error subspaces, ensembles, convergence and assimilation."""

from repro.core.state import FieldLayout, FieldSpec
from repro.core.subspace import ErrorSubspace, IncrementalSubspaceEstimator
from repro.core.covariance import AnomalyAccumulator, AnomalyView
from repro.core.convergence import ConvergenceCriterion, similarity_coefficient
from repro.core.perturbation import (
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.core.assimilation import (
    AnalysisResult,
    ESSEAnalysis,
    TiledESSEAnalysis,
    TileUpdate,
    run_tiles_serial,
    subspace_gain,
)
from repro.core.localization import (
    AdaptiveInflation,
    CutoffTaper,
    GaspariCohnTaper,
    MultiplicativeInflation,
    make_inflation,
    make_taper,
)
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.core.tiling import Tile, TileDecomposition
from repro.core.ensemble import EnsembleRunner, MemberResult
from repro.core.driver import ESSEConfig, ESSEDriver, ForecastResult
from repro.core.verification import (
    VerificationReport,
    anomaly_correlation,
    bias,
    crps,
    rank_histogram,
    rmse,
    spread_skill_ratio,
    verify_ensemble,
)

__all__ = [
    "FieldLayout",
    "FieldSpec",
    "ErrorSubspace",
    "IncrementalSubspaceEstimator",
    "AnomalyAccumulator",
    "AnomalyView",
    "ConvergenceCriterion",
    "similarity_coefficient",
    "PerturbationGenerator",
    "synthetic_initial_subspace",
    "AnalysisResult",
    "ESSEAnalysis",
    "TiledESSEAnalysis",
    "TileUpdate",
    "run_tiles_serial",
    "subspace_gain",
    "AdaptiveInflation",
    "CutoffTaper",
    "GaspariCohnTaper",
    "MultiplicativeInflation",
    "make_inflation",
    "make_taper",
    "DegradedEnsembleWarning",
    "Tile",
    "TileDecomposition",
    "EnsembleRunner",
    "MemberResult",
    "ESSEConfig",
    "ESSEDriver",
    "ForecastResult",
    "VerificationReport",
    "anomaly_correlation",
    "bias",
    "crps",
    "rank_histogram",
    "rmse",
    "spread_skill_ratio",
    "verify_ensemble",
]
