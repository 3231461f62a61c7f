"""TeraGrid site models (paper Table 1 and Sec 5.3).

Per-site compute speed is calibrated from the measured ``pemodel`` time;
the residual in the measured ``pert`` time is attributed to the site's
filesystem ("the slow pert performance for ORNL appears to be partly
related to the PVFS2 filesystem used").  Sites also model the paper's
Grid-usage caveats: stochastic queue waits (no advance reservation) and
per-user active-job caps that throttle massive task parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.taskmodel import REFERENCE_PEMODEL_SECONDS, REFERENCE_PERT_SECONDS
from repro.sched.resources import ClusterModel, Node, NodeSpec


@dataclass(frozen=True)
class GridSite:
    """One remote Grid platform.

    Parameters
    ----------
    name, processor:
        Site label and CPU description (Table 1 columns).
    speed_factor:
        Compute speed relative to the local Opteron 250 (from pemodel).
    pert_io_penalty_s:
        Extra seconds the site's filesystem adds to each ``pert``.
    queue_wait_mean_s:
        Mean of the exponential queue-wait distribution (shared resource,
        no advance reservation -- Sec 5.3.4 disadvantage 2).
    max_user_jobs:
        Active-jobs-per-user cap (0 = unlimited; disadvantage 3).
    cores:
        Cores this site will realistically give one user at a time.
    """

    name: str
    processor: str
    speed_factor: float
    pert_io_penalty_s: float = 0.0
    queue_wait_mean_s: float = 600.0
    max_user_jobs: int = 0
    cores: int = 64

    def __post_init__(self):
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.pert_io_penalty_s < 0 or self.queue_wait_mean_s < 0:
            raise ValueError("penalties must be >= 0")

    def pert_seconds(self) -> float:
        """Time-to-completion of one ``pert`` on this site."""
        return REFERENCE_PERT_SECONDS / self.speed_factor + self.pert_io_penalty_s

    def pemodel_seconds(self) -> float:
        """Time-to-completion of one ``pemodel`` on this site."""
        return REFERENCE_PEMODEL_SECONDS / self.speed_factor

    def sample_queue_wait(self, rng: np.random.Generator) -> float:
        """One queue-wait draw (exponential)."""
        if self.queue_wait_mean_s == 0:
            return 0.0
        return float(rng.exponential(self.queue_wait_mean_s))

    def cluster(self) -> ClusterModel:
        """A cluster model of the slice of this site one user can hold."""
        cores = self.cores if self.max_user_jobs == 0 else min(
            self.cores, self.max_user_jobs
        )
        return ClusterModel(
            nodes=[
                Node(
                    NodeSpec(
                        name=f"{self.name}-0",
                        cores=cores,
                        speed_factor=self.speed_factor,
                    )
                )
            ],
            name=self.name,
        )


def _site_speed(pemodel_seconds: float) -> float:
    return REFERENCE_PEMODEL_SECONDS / pemodel_seconds


def _site_io_penalty(pert_seconds: float, speed: float) -> float:
    return max(pert_seconds - REFERENCE_PERT_SECONDS / speed, 0.0)


#: Table 1 platforms, calibrated from the published measurements.
TERAGRID_SITES: dict[str, GridSite] = {
    "ORNL": GridSite(
        name="ORNL",
        processor="Pentium4 3.06GHz",
        speed_factor=_site_speed(1823.99),
        pert_io_penalty_s=_site_io_penalty(67.83, _site_speed(1823.99)),
        queue_wait_mean_s=1800.0,
        max_user_jobs=64,
    ),
    "Purdue": GridSite(
        name="Purdue",
        processor="Core2 2.33GHz",
        speed_factor=_site_speed(1107.40),
        pert_io_penalty_s=_site_io_penalty(6.25, _site_speed(1107.40)),
        queue_wait_mean_s=900.0,
        max_user_jobs=128,
    ),
    "local": GridSite(
        name="local",
        processor="Opteron 250 2.4GHz",
        speed_factor=1.0,
        pert_io_penalty_s=0.0,
        queue_wait_mean_s=0.0,
        cores=210,
    ),
}


def run_site_benchmark(site: GridSite) -> dict[str, float]:
    """One pert + pemodel on the site -> Table 1 row.

    Returns
    -------
    dict with keys ``pert`` and ``pemodel`` (seconds to completion).
    """
    return {"pert": site.pert_seconds(), "pemodel": site.pemodel_seconds()}
