"""The three times of real-time ocean forecasting (paper Fig 1).

- *Observation ("ocean") time* ``T``: measurements arrive in batches over
  periods ``T_k`` from ``T_0`` to ``T_f``.
- *Forecaster time* ``tau^k``: for each prediction ``k`` the forecaster
  processes the available data, computes ``r+1`` data-driven forecast
  simulations, and studies/selects/web-distributes the best ones.
- *Simulation time* ``t^i``: each simulation re-covers ocean time from
  ``T_0`` through the last observed period ``T_k`` (assimilating each
  batch -- the nowcast) and continues into the unobserved future up to
  ``T_{k+n}`` (the forecast proper).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Shares of a forecaster budget spent on data processing and on web
#: distribution.
PROCESSING_FRACTION = 0.2
DISSEMINATION_FRACTION = 0.1


@dataclass(frozen=True)
class ObservationPeriod:
    """One batch window ``T_k`` in ocean time."""

    index: int
    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("period end must exceed start")
        if self.index < 0:
            raise ValueError("index must be >= 0")

    @property
    def duration(self) -> float:
        """Window length (s)."""
        return self.end - self.start


@dataclass(frozen=True)
class ForecasterTask:
    """One stage of the forecaster's timeline for prediction ``k``."""

    name: str  # "processing" | "simulation" | "dissemination"
    start: float  # forecaster wall-clock (s from tau_0^k)
    end: float

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("task end before start")


@dataclass(frozen=True)
class SimulationWindow:
    """Ocean-time coverage of the ``i``-th simulation of prediction ``k``.

    Attributes
    ----------
    assimilation_periods:
        The observed batches ``T_0 .. T_k`` the simulation assimilates.
    nowcast_time:
        End of the last observed period (the nowcast instant).
    forecast_end:
        ``T_{k+n}``: the last prediction time.
    """

    simulation_index: int
    assimilation_periods: tuple[ObservationPeriod, ...]
    nowcast_time: float
    forecast_end: float

    def __post_init__(self):
        if self.forecast_end < self.nowcast_time:
            raise ValueError("forecast must extend beyond the nowcast")


class ExperimentTimeline:
    """The full Fig 1 structure for one real-time experiment.

    Parameters
    ----------
    t0:
        Experiment start (ocean time, s).
    period_length:
        Length of each observation window ``T_k`` (s).
    n_periods:
        Number of observation windows up to ``T_f``.
    forecast_horizon_periods:
        How many periods ``n`` past the nowcast each prediction extends.
    n_simulations:
        ``r + 1``: data-driven forecast simulations per prediction.
    """

    def __init__(
        self,
        t0: float = 0.0,
        period_length: float = 2 * 86400.0,
        n_periods: int = 5,
        forecast_horizon_periods: int = 1,
        n_simulations: int = 2,
    ):
        if period_length <= 0:
            raise ValueError("period_length must be positive")
        if n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if forecast_horizon_periods < 1:
            raise ValueError("forecast_horizon_periods must be >= 1")
        if n_simulations < 1:
            raise ValueError("n_simulations must be >= 1")
        self.t0 = float(t0)
        self.period_length = float(period_length)
        self.n_periods = int(n_periods)
        self.forecast_horizon_periods = int(forecast_horizon_periods)
        self.n_simulations = int(n_simulations)

    # -- observation time -----------------------------------------------------

    def periods(self) -> list[ObservationPeriod]:
        """All observation windows ``T_0 .. T_{f}``."""
        return [self.period(k) for k in range(self.n_periods)]

    def period(self, k: int) -> ObservationPeriod:
        """The ``T_k`` window."""
        if not 0 <= k < self.n_periods:
            raise IndexError(f"period {k} out of range [0, {self.n_periods})")
        start = self.t0 + k * self.period_length
        return ObservationPeriod(index=k, start=start, end=start + self.period_length)

    # -- forecaster time ----------------------------------------------------------

    def forecaster_tasks(self, budget: float = 6 * 3600.0) -> list[ForecasterTask]:
        """The tau^k stage layout within one forecaster ``budget`` (s).

        ``PROCESSING_FRACTION`` of the wall-clock budget goes to data
        processing and ``DISSEMINATION_FRACTION`` to web distribution; the
        forecast computations get the rest.
        """
        t_proc = budget * PROCESSING_FRACTION
        t_diss = budget * DISSEMINATION_FRACTION
        return [
            ForecasterTask("processing", 0.0, t_proc),
            ForecasterTask("simulation", t_proc, budget - t_diss),
            ForecasterTask("dissemination", budget - t_diss, budget),
        ]

    # -- simulation time -------------------------------------------------------------

    def simulation_window(self, k: int) -> SimulationWindow:
        """Ocean-time coverage of the first simulation of prediction ``k``."""
        if not 0 <= k < self.n_periods:
            raise IndexError(f"prediction {k} out of range")
        observed = tuple(self.period(j) for j in range(k + 1))
        nowcast = observed[-1].end
        forecast_end = nowcast + self.forecast_horizon_periods * self.period_length
        return SimulationWindow(
            simulation_index=0,
            assimilation_periods=observed,
            nowcast_time=nowcast,
            forecast_end=forecast_end,
        )
