"""Unit tests for the Fig 1 timeline structures."""

import pytest

from repro.realtime.times import (
    ExperimentTimeline,
    ForecasterTask,
    ObservationPeriod,
    SimulationWindow,
)


class TestObservationPeriods:
    def test_contiguous_periods(self):
        tl = ExperimentTimeline(t0=100.0, period_length=50.0, n_periods=4)
        periods = tl.periods()
        assert len(periods) == 4
        for a, b in zip(periods[:-1], periods[1:]):
            assert a.end == b.start
        assert periods[0].start == 100.0

    def test_period_duration(self):
        p = ObservationPeriod(index=0, start=0.0, end=10.0)
        assert p.duration == 10.0

    def test_period_validation(self):
        with pytest.raises(ValueError):
            ObservationPeriod(index=0, start=5.0, end=5.0)
        with pytest.raises(ValueError):
            ObservationPeriod(index=-1, start=0.0, end=1.0)

    def test_period_index_bounds(self):
        tl = ExperimentTimeline(n_periods=3)
        with pytest.raises(IndexError):
            tl.period(3)


class TestForecasterTasks:
    def test_stage_layout_covers_budget(self):
        tl = ExperimentTimeline()
        tasks = tl.forecaster_tasks(budget=100.0)
        assert [t.name for t in tasks] == [
            "processing",
            "simulation",
            "dissemination",
        ]
        assert tasks[0].start == 0.0
        assert tasks[-1].end == 100.0
        for a, b in zip(tasks[:-1], tasks[1:]):
            assert a.end == b.start

    def test_simulation_gets_the_bulk(self):
        tl = ExperimentTimeline()
        tasks = tl.forecaster_tasks(budget=100.0)
        sim = tasks[1]
        assert sim.end - sim.start > 50.0

    def test_task_validation(self):
        with pytest.raises(ValueError):
            ForecasterTask("x", 5.0, 1.0)


class TestSimulationWindows:
    def test_assimilates_all_observed_periods(self):
        tl = ExperimentTimeline(period_length=10.0, n_periods=5)
        win = tl.simulation_window(k=2)
        assert [p.index for p in win.assimilation_periods] == [0, 1, 2]
        assert win.nowcast_time == 30.0

    def test_forecast_extends_past_nowcast(self):
        tl = ExperimentTimeline(
            period_length=10.0, n_periods=5, forecast_horizon_periods=2
        )
        win = tl.simulation_window(k=1)
        assert win.forecast_end == win.nowcast_time + 20.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SimulationWindow(
                simulation_index=0,
                assimilation_periods=(),
                nowcast_time=10.0,
                forecast_end=5.0,
            )

    def test_prediction_index_bounds(self):
        tl = ExperimentTimeline(n_periods=2)
        with pytest.raises(IndexError):
            tl.simulation_window(k=5)


class TestTimelineValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"period_length": 0.0},
            {"n_periods": 0},
            {"forecast_horizon_periods": 0},
            {"n_simulations": 0},
        ],
    )
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            ExperimentTimeline(**kw)
