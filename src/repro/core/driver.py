"""The ESSE driver: the full Fig 2 algorithm in one place.

One forecast-and-assimilation cycle is:

1. perturb the mean state with the current error subspace (Sec 3.1 i),
2. run the stochastic forecast ensemble in stages (ii),
3. continuously accumulate member-minus-central anomalies (iii),
4. SVD the anomaly matrix and test subspace convergence, enlarging the
   ensemble N -> N2 -> ... up to Nmax or until the forecast deadline (iv),
5. assimilate the observation batch with the converged subspace (v).

This module is the *algorithmic*, in-memory implementation.  Steps
(ii)-(iv) are :func:`repro.core.ensemble.grow_ensemble`, the one stage
loop shared with :class:`repro.workflow.ensemble.EnsembleEngine`; the
driver supplies vectorized member batches -- stepped on every usable CPU,
or through a caller's ``mapper`` over the batches -- and an in-memory
column sink.
:mod:`repro.workflow` re-expresses the same steps as the paper's serial
(Fig 3) and many-task (Fig 4) file-based workflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.assimilation import AnalysisResult, ESSEAnalysis
from repro.core.covariance import AnomalyAccumulator
from repro.core.ensemble import EnsembleGrowth, EnsembleRunner, grow_ensemble
from repro.core.perturbation import PerturbationGenerator
from repro.core.subspace import ErrorSubspace, IncrementalSubspaceEstimator
from repro.telemetry.spans import NULL_RECORDER
from repro.util.threads import _map_on_usable_cpus

if TYPE_CHECKING:  # avoid core <-> obs/ocean import cycles; hints only
    from repro.obs.operators import ObservationOperator
    from repro.ocean.model import ModelState, PEModel


@dataclass(frozen=True)
class ESSEConfig:
    """Tuning of one ESSE cycle.

    Parameters
    ----------
    initial_ensemble_size:
        First-stage ensemble size N.
    growth_factor:
        Stage growth N -> ceil(N * growth_factor) (paper: "increase N to
        N2, up to some maximal value Nmax").
    max_ensemble_size:
        Nmax: hard ceiling on members.
    convergence_tolerance:
        Similarity-coefficient threshold for convergence, in (0, 1].
    max_subspace_rank:
        Cap on retained error modes.
    svd_energy:
        Retained variance fraction in each SVD snapshot, in (0, 1].
    deadline_seconds:
        Tmax: wall-clock budget for the ensemble stage (None = unlimited);
        "until the time Tmax available for the forecast expires" (Sec 4).
    """

    initial_ensemble_size: int = 16
    growth_factor: float = 2.0
    max_ensemble_size: int = 128
    convergence_tolerance: float = 0.97
    max_subspace_rank: int = 60
    svd_energy: float = 0.999
    deadline_seconds: float | None = None

    def __post_init__(self):
        if self.initial_ensemble_size < 2:
            raise ValueError("initial ensemble size must be >= 2")
        if self.growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1")
        if self.max_ensemble_size < self.initial_ensemble_size:
            raise ValueError("max_ensemble_size < initial_ensemble_size")
        if self.max_subspace_rank < 1:
            raise ValueError("max_subspace_rank must be >= 1")
        if not 0.0 < self.convergence_tolerance <= 1.0:
            raise ValueError("convergence_tolerance must be in (0, 1]")
        if not 0.0 < self.svd_energy <= 1.0:
            raise ValueError("svd_energy must be in (0, 1]")
        if self.deadline_seconds is not None and not self.deadline_seconds >= 0:
            raise ValueError("deadline_seconds must be None or >= 0")

    def subspace_estimator(self) -> IncrementalSubspaceEstimator:
        """The stage loop's subspace estimator: the exact factorization.

        :class:`~repro.core.subspace.IncrementalSubspaceEstimator` carries
        the raw columns' Gram matrix between checkpoints and extends it by
        the new members only, so a checkpoint costs ``O(n N k_new)`` for
        that step and equals the from-scratch SVD to round-off.
        """
        return IncrementalSubspaceEstimator(
            rank=self.max_subspace_rank, energy=self.svd_energy
        )

    def stage_sizes(self) -> list[int]:
        """Cumulative ensemble sizes of the growth stages (N, N2, ..., Nmax)."""
        sizes = [self.initial_ensemble_size]
        while sizes[-1] < self.max_ensemble_size:
            nxt = min(
                int(np.ceil(sizes[-1] * self.growth_factor)),
                self.max_ensemble_size,
            )
            sizes.append(nxt)
        return sizes


@dataclass
class ForecastResult(EnsembleGrowth):
    """Outcome of the ensemble/convergence stage."""

    central: ModelState
    member_forecasts: np.ndarray  # (N_ok, n) physical units, member_ids order
    wall_seconds: float = 0.0

    @property
    def failure_count(self) -> int:
        """Members that crashed or timed out (tolerated)."""
        return len(self.failed_members)


class ESSEDriver:
    """Runs ESSE forecast/assimilation cycles on a PE model.

    Parameters
    ----------
    model:
        Base (deterministic) model.
    config:
        ESSE tuning.
    root_seed:
        Experiment seed (member perturbations and model noise derive from
        it).
    telemetry:
        A :class:`~repro.telemetry.spans.TraceRecorder` that receives
        stage/SVD/assimilation spans and supplies the clock for the Tmax
        deadline check.  The default records nothing.
    analysis:
        The analysis :meth:`assimilate` uses: any object with the
        ``update(mean, subspace, operator) -> AnalysisResult`` contract.
        :meth:`repro.config.ExperimentConfig.build_driver` always passes
        the one its ``assimilation`` section describes; the default, for
        direct construction only, is the global :class:`ESSEAnalysis`
        without inflation.
    batch_size:
        Members per vectorized integration, and the unit :meth:`forecast`
        hands to each of its threads; results are bit-identical at every
        value (the experiment config builds the driver at the default).
    """

    def __init__(
        self,
        model: PEModel,
        config: ESSEConfig | None = None,
        root_seed: int = 0,
        telemetry=None,
        analysis=None,
        batch_size: int = 8,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.config = config if config is not None else ESSEConfig()
        self.root_seed = int(root_seed)
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.analysis = (
            analysis
            if analysis is not None
            else ESSEAnalysis(model.layout)
        )

    # -- forecast stage -----------------------------------------------------

    def forecast(
        self,
        mean_state: ModelState,
        subspace: ErrorSubspace,
        duration: float,
        mapper: Callable | None = None,
    ) -> ForecastResult:
        """Ensemble uncertainty forecast with adaptive sizing (Fig 2 i-iv).

        Parameters
        ----------
        mean_state:
            Current estimate of the ocean state.
        subspace:
            Error subspace describing current uncertainty.
        duration:
            Forecast horizon (s).
        mapper:
            Optional ``map(fn, iterable)`` applied over member *batches*:
            each call it makes steps up to ``batch_size`` members in one
            vectorized integration.  The default steps a stage's batches
            on ``min(usable CPUs, batches in the stage)`` threads, the
            calling thread included, each taking an equal strided share
            of whole batches, and delivers them in batch order, so the
            result is bit-identical to ``mapper=map`` (which one usable
            CPU runs, starting no thread).
        """
        clock = self.telemetry.clock
        started = clock()
        perturber = PerturbationGenerator(
            self.model.layout, subspace, root_seed=self.root_seed
        )
        runner = EnsembleRunner(self.model, perturber, duration, self.root_seed)
        forecasts: list[np.ndarray] = []
        run_map = mapper if mapper is not None else _map_on_usable_cpus

        def propagate(indices, deliver) -> None:
            """Step the stage's members in vectorized batches."""
            size = self.batch_size
            chunks = [indices[lo : lo + size] for lo in range(0, len(indices), size)]
            for results in run_map(
                lambda chunk: runner.run_members_batched(mean_state, chunk), chunks
            ):
                for res in results:
                    if res.ok:
                        forecasts.append(res.forecast)
                    deliver(res)

        with self.telemetry.span("driver.forecast") as forecast_span:
            with self.telemetry.span("central_forecast"):
                central = runner.central_forecast(mean_state)
            growth = grow_ensemble(
                self.config,
                propagate,
                AnomalyAccumulator(
                    self.model.layout,
                    self.model.to_vector(central),
                    capacity=self.config.max_ensemble_size,
                ),
                telemetry=self.telemetry,
                started=started,
            )
            forecast_span.set(
                ensemble_size=growth.ensemble_size, converged=growth.converged
            )
        return ForecastResult(
            **vars(growth),
            central=central,
            member_forecasts=np.array(forecasts),
            wall_seconds=clock() - started,
        )

    # -- analysis stage ----------------------------------------------------

    def assimilate(
        self,
        forecast: ForecastResult,
        operator: ObservationOperator,
    ) -> AnalysisResult:
        """Fig 2 step (v): assimilate one observation batch."""
        with self.telemetry.span(
            "driver.assimilate",
            rank=forecast.subspace.rank,
            backend=type(self.analysis).__name__,
        ):
            return self.analysis.update(
                self.model.to_vector(forecast.central), forecast.subspace, operator
            )
