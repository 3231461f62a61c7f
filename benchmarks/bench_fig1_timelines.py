"""Fig 1: the three forecasting timelines.

Regenerates the figure's structure as data: the observation windows T_k
(top row), the forecaster task layout tau^k (middle row), and the
simulation-time coverage t^i of each prediction (bottom row), then renders
them as text.
"""

from conftest import print_table
from repro.realtime import ExperimentTimeline


def build_timeline():
    tl = ExperimentTimeline(
        t0=0.0,
        period_length=2 * 86400.0,
        n_periods=5,
        forecast_horizon_periods=2,
        n_simulations=3,
    )
    periods = tl.periods()
    tasks = tl.forecaster_tasks(budget=6 * 3600.0)
    windows = [tl.simulation_window(k) for k in range(tl.n_periods)]
    return tl, periods, tasks, windows


def test_fig1_timelines(benchmark):
    tl, periods, tasks, windows = benchmark.pedantic(
        build_timeline, rounds=5, iterations=1
    )

    print_table(
        "Fig 1 (top): observation time -- batches T_k (days)",
        ["T_k", "start", "end"],
        [
            [f"T_{p.index}", f"{p.start / 86400:.1f}", f"{p.end / 86400:.1f}"]
            for p in periods
        ],
    )
    print_table(
        "Fig 1 (middle): forecaster time -- tasks of one prediction (hours)",
        ["task", "start", "end"],
        [[t.name, f"{t.start / 3600:.1f}", f"{t.end / 3600:.1f}"] for t in tasks],
    )
    print_table(
        "Fig 1 (bottom): simulation time -- coverage of prediction k (days)",
        ["k", "assimilated batches", "nowcast", "forecast to"],
        [
            [
                w.assimilation_periods[-1].index,
                len(w.assimilation_periods),
                f"{w.nowcast_time / 86400:.1f}",
                f"{w.forecast_end / 86400:.1f}",
            ]
            for w in windows
        ],
    )

    # structural assertions of the figure
    for a, b in zip(periods[:-1], periods[1:]):
        assert a.end == b.start  # contiguous batches
    assert [t.name for t in tasks] == ["processing", "simulation", "dissemination"]
    for k, w in enumerate(windows):
        assert len(w.assimilation_periods) == k + 1  # each sim re-covers T_0..T_k
        assert w.forecast_end > w.nowcast_time  # forecast proper exists
    # later predictions nowcast later
    nowcasts = [w.nowcast_time for w in windows]
    assert nowcasts == sorted(nowcasts)
