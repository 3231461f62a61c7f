"""Forecast products: scoring, selection and the web bulletin.

Paper Fig 1 (middle row): each prediction comprises "the computation of
r+1 data-driven forecast simulations" followed by "the study, selection
and web-distribution of the best forecasts".  This module implements that
tail of the forecaster's timeline: candidate forecasts are scored against
the newest observation batch (noise-weighted misfit), the best is
selected, and a distributable product summarizing fields, uncertainty and
the candidate ranking is generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.driver import ForecastResult
    from repro.obs.operators import ObservationOperator
    from repro.ocean.model import PEModel


@dataclass(frozen=True)
class CandidateScore:
    """One candidate forecast's fit to the verification batch."""

    label: str
    weighted_rmse: float  # sqrt(mean(innovation^2 / R))

    def __post_init__(self):
        if self.weighted_rmse < 0:
            raise ValueError("weighted_rmse must be >= 0")

    def to_dict(self) -> dict:
        """JSON-ready form (stable keys; round-trips via :meth:`from_dict`)."""
        return {"label": self.label, "weighted_rmse": self.weighted_rmse}

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateScore":
        """Inverse of :meth:`to_dict`."""
        return cls(
            label=str(data["label"]),
            weighted_rmse=float(data["weighted_rmse"]),
        )


def score_candidates(
    candidates: dict[str, np.ndarray],
    operator: "ObservationOperator",
) -> list[CandidateScore]:
    """Score candidate state vectors against an observation batch.

    The score is the observation-noise-weighted RMS misfit, so a candidate
    matching accurate CTDs matters more than one matching noisy SST.
    Scores are returned best-first; exact ties order by label, so the
    ranking (and therefore the *selected* forecast) is deterministic
    regardless of candidate-dict insertion order.
    """
    if not candidates:
        raise ValueError("need at least one candidate forecast")
    scores = []
    for label, vector in candidates.items():
        innovation = operator.innovation(np.asarray(vector))
        weighted = innovation**2 / operator.noise_var
        scores.append(
            CandidateScore(label=label, weighted_rmse=float(np.sqrt(weighted.mean())))
        )
    return sorted(scores, key=lambda s: (s.weighted_rmse, s.label))


@dataclass(frozen=True)
class ForecastProduct:
    """The distributable bulletin of one prediction cycle."""

    cycle_index: int
    nowcast_time: float
    selected: str
    scores: tuple[CandidateScore, ...]
    sst_mean: float
    sst_min: float
    sst_max: float
    sst_sigma_median: float
    ensemble_size: int
    converged: bool

    def render(self) -> str:
        """The text bulletin ("web distribution" stand-in)."""
        lines = [
            f"ESSE forecast bulletin -- cycle {self.cycle_index}, "
            f"nowcast t={self.nowcast_time / 3600.0:.1f} h",
            f"selected forecast: {self.selected} "
            f"(ensemble N={self.ensemble_size}, "
            f"converged={'yes' if self.converged else 'no'})",
            f"SST: mean {self.sst_mean:.2f} degC "
            f"[{self.sst_min:.2f}, {self.sst_max:.2f}], "
            f"median uncertainty {self.sst_sigma_median:.2f} degC",
            "candidate ranking (weighted RMSE):",
        ]
        for rank, score in enumerate(self.scores, start=1):
            lines.append(f"  {rank}. {score.label}: {score.weighted_rmse:.4f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form, stable across processes.

        The product store serializes every published snapshot through
        this; :meth:`from_dict` reconstructs an equal dataclass, so a
        bulletin survives the disk round-trip bit-for-bit (floats pass
        through ``json`` unrounded via repr round-tripping).
        """
        return {
            "cycle_index": self.cycle_index,
            "nowcast_time": self.nowcast_time,
            "selected": self.selected,
            "scores": [s.to_dict() for s in self.scores],
            "sst_mean": self.sst_mean,
            "sst_min": self.sst_min,
            "sst_max": self.sst_max,
            "sst_sigma_median": self.sst_sigma_median,
            "ensemble_size": self.ensemble_size,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ForecastProduct":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cycle_index=int(data["cycle_index"]),
            nowcast_time=float(data["nowcast_time"]),
            selected=str(data["selected"]),
            scores=tuple(CandidateScore.from_dict(s) for s in data["scores"]),
            sst_mean=float(data["sst_mean"]),
            sst_min=float(data["sst_min"]),
            sst_max=float(data["sst_max"]),
            sst_sigma_median=float(data["sst_sigma_median"]),
            ensemble_size=int(data["ensemble_size"]),
            converged=bool(data["converged"]),
        )


def generate_product(
    model: "PEModel",
    forecast: "ForecastResult",
    operator: "ObservationOperator",
    cycle_index: int = 0,
) -> ForecastProduct:
    """Build the cycle's product from the standard candidate set.

    The r+1 data-driven simulations are represented by:

    - ``central``: the unperturbed central forecast,
    - ``ensemble-mean``: the mean of the surviving stochastic members.
    """
    central_vec = model.to_vector(forecast.central)
    candidates: dict[str, np.ndarray] = {"central": central_vec}
    if forecast.member_forecasts.shape[0] >= 2:
        candidates["ensemble-mean"] = forecast.member_forecasts.mean(axis=0)
    scores = score_candidates(candidates, operator)
    best = scores[0].label

    layout = model.layout
    grid = model.grid
    wet = grid.mask
    best_state = candidates[best]
    sst = layout.view(np.asarray(best_state), "temp")[0]
    var_phys = forecast.subspace.variance_field() * np.asarray(layout.scales) ** 2
    sst_sigma = np.sqrt(layout.view(var_phys, "temp")[0])
    return ForecastProduct(
        cycle_index=cycle_index,
        nowcast_time=forecast.central.time,
        selected=best,
        scores=tuple(scores),
        sst_mean=float(sst[wet].mean()),
        sst_min=float(sst[wet].min()),
        sst_max=float(sst[wet].max()),
        sst_sigma_median=float(np.median(sst_sigma[wet])),
        ensemble_size=forecast.ensemble_size,
        converged=forecast.converged,
    )
