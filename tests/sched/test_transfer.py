"""Tests for the output-return strategies (paper Sec 5.3.2)."""

import numpy as np
import pytest

from repro.sched.transfer import (
    PULL_CONCURRENCY,
    TWO_STAGE_BATCH_SIZE,
    OutputReturnPlan,
    WANModel,
    simulate_output_return,
)


def wave(n=200, start=1000.0, width=30.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(start, start + width, n))


class TestWANModel:
    def test_congestion_factor_bounds(self):
        wan = WANModel(gateway_concurrency_limit=8, congestion_alpha=0.1)
        assert wan.congestion_factor(1) == 1.0
        assert wan.congestion_factor(8) == 1.0
        assert 0.0 < wan.congestion_factor(100) < 1.0
        assert wan.congestion_factor(100) < wan.congestion_factor(20)

    def test_validation(self):
        with pytest.raises(ValueError):
            WANModel(bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            WANModel(setup_seconds=-1.0)
        with pytest.raises(ValueError):
            WANModel(gateway_concurrency_limit=0)
        with pytest.raises(ValueError):
            WANModel(congestion_alpha=-0.1)


class TestPlans:
    def test_all_files_arrive(self):
        times = wave(100)
        for plan in OutputReturnPlan:
            report = simulate_output_return(times, 11.0, plan)
            assert report.all_home_time >= times[-1]
            assert report.mean_file_delay > 0

    def test_push_floods_the_gateway(self):
        times = wave(300, width=10.0)
        push = simulate_output_return(times, 11.0, OutputReturnPlan.PUSH)
        pull = simulate_output_return(times, 11.0, OutputReturnPlan.PULL)
        assert push.peak_concurrent_streams > 10 * pull.peak_concurrent_streams

    def test_pull_beats_push_under_synchronized_bursts(self):
        """The paper: pull 'can pace the file transfers ... and perform
        much better' than the push burst."""
        times = wave(400, width=20.0)
        push = simulate_output_return(times, 11.0, OutputReturnPlan.PUSH)
        pull = simulate_output_return(times, 11.0, OutputReturnPlan.PULL)
        assert pull.all_home_time < push.all_home_time
        assert pull.mean_file_delay < push.mean_file_delay

    def test_pull_respects_concurrency(self):
        report = simulate_output_return(wave(100), 11.0, OutputReturnPlan.PULL)
        assert report.peak_concurrent_streams <= PULL_CONCURRENCY

    def test_two_stage_batches_transfers(self):
        times = wave(4 * TWO_STAGE_BATCH_SIZE)
        report = simulate_output_return(times, 11.0, OutputReturnPlan.TWO_STAGE)
        assert report.transfers_started == 4

    def test_two_stage_flushes_partial_tail(self):
        times = wave(3 * TWO_STAGE_BATCH_SIZE + 7)
        report = simulate_output_return(times, 11.0, OutputReturnPlan.TWO_STAGE)
        assert report.transfers_started == 4  # 3 full + 1 tail of 7

    def test_spread_completions_make_push_fine(self):
        """Without synchronization the push burst never forms."""
        times = np.linspace(0.0, 5000.0, 100)
        push = simulate_output_return(times, 11.0, OutputReturnPlan.PUSH)
        assert push.peak_concurrent_streams <= 5

    def test_validation(self):
        with pytest.raises(ValueError, match="completion"):
            simulate_output_return([], 11.0, OutputReturnPlan.PUSH)
        with pytest.raises(ValueError, match="file_mb"):
            simulate_output_return([1.0], 0.0, OutputReturnPlan.PUSH)

