"""The real-time forecast/assimilation cycle driver.

Walks an :class:`~repro.realtime.times.ExperimentTimeline` against a twin
truth run: at the end of every observation period the network samples the
truth, ESSE forecasts uncertainty over the period, the batch is
assimilated, and the analysis becomes the next cycle's initial condition --
the "simulation time" row of Fig 1 executed end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.driver import ESSEDriver
from repro.core.subspace import ErrorSubspace
from repro.obs.network import ObservationNetwork
from repro.ocean.model import ModelState, PEModel
from repro.realtime.products import generate_product
from repro.realtime.times import ExperimentTimeline
from repro.telemetry.spans import NULL_RECORDER


@dataclass(frozen=True)
class CycleRecord:
    """Diagnostics of one assimilation cycle."""

    period_index: int
    nowcast_time: float
    ensemble_size: int
    converged: bool
    innovation_rms: float
    analysis_rms: float
    forecast_error: float
    analysis_error: float

    @property
    def error_reduction(self) -> float:
        """Relative reduction of true state error by the analysis."""
        if self.forecast_error == 0:
            return 0.0
        return 1.0 - self.analysis_error / self.forecast_error


class RealTimeForecastCycle:
    """Runs ESSE through successive observation periods of a twin experiment.

    Parameters
    ----------
    driver:
        Configured ESSE driver (model inside).
    truth_model:
        The (stochastic) model that evolves the synthetic truth.
    network:
        Observation network sampling the truth each period.
    timeline:
        Experiment timeline; each period triggers one cycle.
    telemetry:
        A :class:`~repro.telemetry.spans.TraceRecorder` receiving one
        ``cycle`` span per observation period, with ``truth_run`` /
        ``observe`` child spans (the driver adds its own forecast and
        assimilation spans inside when it shares the recorder -- pass the
        same instance to both to get the full Fig 1 "simulation time"
        timeline).  The default records nothing.
    product_hook:
        Optional callable ``(product, forecast) -> None`` receiving each
        completed cycle's :class:`~repro.realtime.products.ForecastProduct`
        (scored against that period's observation batch) together with
        the raw :class:`~repro.core.driver.ForecastResult` -- the Fig 1
        "web distribution" tail.  The forecast-product service layer
        plugs its publisher in here
        (:class:`repro.products.store.CycleProductPublisher`); the
        dependency points from the service layer down to this hook, never
        back.  The default drops products on the floor as before.
    """

    def __init__(
        self,
        driver: ESSEDriver,
        truth_model: PEModel,
        network: ObservationNetwork,
        timeline: ExperimentTimeline,
        telemetry=None,
        product_hook: Callable | None = None,
    ):
        self.driver = driver
        self.truth_model = truth_model
        self.network = network
        self.timeline = timeline
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.product_hook = product_hook

    def _normalized_error(self, state_vec: np.ndarray, truth: ModelState) -> float:
        layout = self.driver.model.layout
        truth_vec = self.driver.model.to_vector(truth)
        return float(np.linalg.norm(layout.normalize(state_vec - truth_vec)))

    def run(
        self,
        initial_state: ModelState,
        initial_truth: ModelState,
        initial_subspace: ErrorSubspace,
        mapper: Callable | None = None,
    ) -> tuple[list[CycleRecord], ModelState, ErrorSubspace]:
        """Run every cycle of the timeline.

        Returns
        -------
        (records, final_analysis_state, final_subspace)
        """
        model = self.driver.model
        state = initial_state
        truth = initial_truth
        subspace = initial_subspace
        records: list[CycleRecord] = []
        for period in self.timeline.periods():
            with self.telemetry.span("cycle", period=period.index) as cycle_span:
                with self.telemetry.span("truth_run", period=period.index):
                    truth = self.truth_model.run(truth, period.duration)
                forecast = self.driver.forecast(
                    state, subspace, duration=period.duration, mapper=mapper
                )
                with self.telemetry.span("observe", period=period.index):
                    batch = self.network.observe(truth)
                analysis = self.driver.assimilate(forecast, batch.operator)
                forecast_err = self._normalized_error(
                    model.to_vector(forecast.central), truth
                )
                analysis_err = self._normalized_error(analysis.mean, truth)
                cycle_span.set(
                    ensemble_size=forecast.ensemble_size,
                    converged=forecast.converged,
                )
                if self.product_hook is not None:
                    with self.telemetry.span("publish_product", period=period.index):
                        product = generate_product(
                            model,
                            forecast,
                            batch.operator,
                            cycle_index=period.index,
                        )
                        self.product_hook(product, forecast)
                records.append(
                    CycleRecord(
                        period_index=period.index,
                        nowcast_time=period.end,
                        ensemble_size=forecast.ensemble_size,
                        converged=forecast.converged,
                        innovation_rms=analysis.innovation_rms,
                        analysis_rms=analysis.analysis_rms,
                        forecast_error=forecast_err,
                        analysis_error=analysis_err,
                    )
                )
                state = model.from_vector(analysis.mean, time=forecast.central.time)
                subspace = analysis.subspace
                # Nothing of this period may be alive while the next one's
                # ensemble is in flight: its member forecasts alone are
                # N x n floats.
                del forecast, analysis, batch
        return records, state, subspace
