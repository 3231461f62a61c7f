"""Fault injection, retry/backoff, and straggler handling for the task pool.

Covers the robustness subsystem end to end: deterministic fault draws,
the reproducible backoff schedule, fault-injected ensemble runs completing
via retries (or degrading with the documented warning), corrupt-output
detection, and straggler cancellation freeing pool slots.
"""

import time

import numpy as np
import pytest

from repro.core import (
    ESSEConfig,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.core.ensemble import EnsembleRunner
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.workflow import (
    DegradedEnsembleWarning,
    FaultInjector,
    FaultKind,
    ParallelESSEWorkflow,
    ProgressMonitor,
    RetryPolicy,
    StatusDirectory,
    TaskStatus,
)


@pytest.fixture(scope="module")
def setup():
    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=8, seed=0
    )
    perturber = PerturbationGenerator(model.layout, subspace, root_seed=5)
    runner = EnsembleRunner(model, perturber, duration=6 * 400.0, root_seed=5)
    return model, background, runner


def config(**kw):
    defaults = dict(
        initial_ensemble_size=4,
        max_ensemble_size=16,
        convergence_tolerance=1.0,  # run to Nmax: every index executes
        max_subspace_rank=8,
    )
    defaults.update(kw)
    return ESSEConfig(**defaults)


class TestFaultInjector:
    def test_draws_are_deterministic_and_seed_dependent(self):
        a = FaultInjector(crash_rate=0.2, seed=0)
        b = FaultInjector(crash_rate=0.2, seed=0)
        c = FaultInjector(crash_rate=0.2, seed=1)
        draws_a = [a.draw(i, t) for i in range(50) for t in (1, 2)]
        draws_b = [b.draw(i, t) for i in range(50) for t in (1, 2)]
        draws_c = [c.draw(i, t) for i in range(50) for t in (1, 2)]
        assert draws_a == draws_b
        assert draws_a != draws_c
        assert any(d is FaultKind.CRASH for d in draws_a)

    def test_draws_partition_by_rate(self):
        fi = FaultInjector(crash_rate=0.3, corrupt_rate=0.3, stall_rate=0.3, seed=7)
        draws = [fi.draw(i, 1) for i in range(600)]
        for kind in (FaultKind.CRASH, FaultKind.CORRUPT, FaultKind.STALL):
            frac = sum(1 for d in draws if d is kind) / len(draws)
            assert 0.2 < frac < 0.4

    def test_draw_depends_on_task_kind(self):
        fi = FaultInjector(crash_rate=0.5, seed=0)
        pe = [fi.draw(i, 1, kind="pemodel") for i in range(100)]
        ac = [fi.draw(i, 1, kind="acoustic") for i in range(100)]
        assert pe != ac

    def test_submit_failures_independent_of_execution_faults(self):
        fi = FaultInjector(crash_rate=1.0, submit_failure_rate=0.0, seed=0)
        assert not fi.submit_fails(0, 1)
        fi2 = FaultInjector(submit_failure_rate=1.0, seed=0)
        assert fi2.submit_fails(0, 1)
        assert fi2.draw(0, 1) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultInjector(crash_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultInjector(crash_rate=0.6, corrupt_rate=0.6)
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultInjector(stall_seconds=-1.0)

    def test_fire_and_canonical_sequence(self):
        fi = FaultInjector(crash_rate=0.5, seed=0)
        fi.fire(FaultKind.CRASH, 5, 1)
        fi.fire(FaultKind.CRASH, 2, 1)
        seq = fi.fault_sequence()
        assert [e.index for e in seq] == [2, 5]
        assert len(fi.history) == 2

    def test_corrupt_bytes_truncates(self):
        fi = FaultInjector()
        data = bytes(range(100))
        out = fi.corrupt_bytes(data)
        assert 0 < len(out) < len(data)
        assert data.startswith(out)

    def test_stall_cancellable(self):
        import threading

        fi = FaultInjector(stall_seconds=30.0)
        cancel = threading.Event()
        cancel.set()
        # Genuine wall-clock assertion: a pre-cancelled stall must return
        # immediately in real time, whatever clock the workflow injects.
        t0 = time.perf_counter()  # repro-lint: disable=REP002
        assert fi.stall(cancel) is True  # returned cancelled, immediately
        assert time.perf_counter() - t0 < 1.0  # repro-lint: disable=REP002


class TestRetryPolicy:
    def test_backoff_is_exponential_and_deterministic(self):
        rp = RetryPolicy(
            max_attempts=4, backoff_base_s=0.1, backoff_factor=2.0, jitter=0.0
        )
        assert rp.schedule(0) == pytest.approx([0.1, 0.2, 0.4])
        rpj = RetryPolicy(max_attempts=4, backoff_base_s=0.1, jitter=0.5, seed=9)
        s1 = rpj.schedule(3)
        s2 = RetryPolicy(max_attempts=4, backoff_base_s=0.1, jitter=0.5, seed=9).schedule(3)
        assert s1 == s2  # fixed seed -> identical schedule
        assert all(0.1 * 2 ** k <= d <= 0.15 * 2 ** k for k, d in enumerate(s1))
        assert rpj.schedule(4) != s1  # per-index decorrelation

    def test_retries_left(self):
        rp = RetryPolicy(max_attempts=3)
        assert rp.retries_left(1) and rp.retries_left(2)
        assert not rp.retries_left(3)
        assert not RetryPolicy(max_attempts=1).retries_left(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestFaultInjectedWorkflow:
    """The acceptance demo: crash faults are healed by retries."""

    def run_demo(self, setup, workdir, seed=0):
        _, background, runner = setup
        faults = FaultInjector(crash_rate=0.2, seed=seed)
        wf = ParallelESSEWorkflow(
            runner,
            config(),
            workdir,
            n_workers=4,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01, seed=seed),
            faults=faults,
        )
        return wf, wf.run(background)

    def test_crash_injected_run_completes_via_retries(self, setup, tmp_path):
        wf, result = self.run_demo(setup, tmp_path)
        # crashes happened and were healed: full ensemble, zero terminal
        assert result.n_retried > 0
        assert result.n_failed == 0
        assert not result.degraded
        assert result.n_completed == 16
        assert result.events_of("retry")
        # the monitor surfaces the retry counters from attempt records
        report = ProgressMonitor(wf.status, {"pemodel": 16}).report("pemodel")
        assert report.n_retried > 0
        assert "retried" in report.render()
        # attempt-numbered records preserve the failed first attempts
        counts = wf.status.attempt_counts("pemodel")
        assert any(
            per.get(TaskStatus.MODEL_FAILURE, 0) > 0 for per in counts.values()
        )

    def test_same_seed_reproduces_fault_sequence(self, setup, tmp_path):
        wf1, r1 = self.run_demo(setup, tmp_path / "a")
        wf2, r2 = self.run_demo(setup, tmp_path / "b")
        assert wf1.faults.fault_sequence() == wf2.faults.fault_sequence()
        assert wf1.faults.fault_sequence()  # non-empty: faults really fired
        assert r1.n_retried == r2.n_retried

    def test_different_seed_changes_fault_sequence(self, setup, tmp_path):
        wf1, _ = self.run_demo(setup, tmp_path / "a", seed=0)
        wf2, _ = self.run_demo(setup, tmp_path / "b", seed=1)
        assert wf1.faults.fault_sequence() != wf2.faults.fault_sequence()

    def test_corrupt_output_detected_and_retried(self, setup, tmp_path):
        _, background, runner = setup
        wf = ParallelESSEWorkflow(
            runner,
            config(),
            tmp_path,
            n_workers=4,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
            faults=FaultInjector(corrupt_rate=0.3, seed=1),
        )
        result = wf.run(background)
        assert result.events_of("member_corrupt")
        assert result.n_retried > 0
        assert result.n_completed == 16  # healed: torn writes rerun
        # the torn attempt is on record as an IO failure
        counts = wf.status.attempt_counts("pemodel")
        assert any(per.get(TaskStatus.IO_FAILURE, 0) > 0 for per in counts.values())

    def test_torn_last_output_is_retried_not_lost(self, setup, tmp_path):
        """ROADMAP defect (a): the main loop must not leave on all-resolved
        before the differ has read the last successful member's file."""
        _, background, runner = setup
        last = config().max_ensemble_size - 1

        class TearLastMember(FaultInjector):
            def draw(self, index, attempt, kind="pemodel"):
                torn = (index, attempt) == (last, 1)
                return FaultKind.CORRUPT if torn else None

        def run(workdir, **kw):
            # One worker: members finish in index order, so ``last`` is the
            # final output the differ gets to see.
            wf = ParallelESSEWorkflow(runner, config(), workdir, n_workers=1, **kw)
            listing = wf.status.successful_indices

            def slow_listing(kind):  # a shared FS slower than the main loop
                time.sleep(0.05)
                return listing(kind)

            wf.status.successful_indices = slow_listing
            return wf.run(background)

        clean = run(tmp_path / "clean")
        faulted = run(
            tmp_path / "faulted",
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.005),
            faults=TearLastMember(),
        )
        assert faulted.events_of("member_corrupt")
        assert faulted.n_retried == 1
        assert not faulted.degraded and faulted.n_failed == 0
        assert set(faulted.member_ids) == set(clean.member_ids) == set(range(last + 1))

    def test_straggler_cancellation_frees_pool_slots(self, setup, tmp_path):
        _, background, runner = setup
        stall = 30.0  # far longer than the whole test should take
        wf = ParallelESSEWorkflow(
            runner,
            config(),
            tmp_path,
            n_workers=4,
            retry=RetryPolicy(
                max_attempts=4, backoff_base_s=0.01, timeout_seconds=1.0
            ),
            faults=FaultInjector(stall_rate=0.3, stall_seconds=stall, seed=2),
        )
        result = wf.run(background)
        # stalled attempts were cancelled at the deadline, their slots
        # reused, and replacements completed the ensemble
        assert result.n_timed_out > 0
        assert result.events_of("straggler_cancel")
        assert result.n_completed == 16
        assert result.wall_seconds < stall / 2
        report = ProgressMonitor(wf.status, {"pemodel": 16}).report("pemodel")
        assert report.n_timed_out > 0
        assert "timed out" in report.render()

    def test_transient_submit_failures_retried(self, setup, tmp_path):
        _, background, runner = setup
        wf = ParallelESSEWorkflow(
            runner,
            config(),
            tmp_path,
            n_workers=4,
            retry=RetryPolicy(backoff_base_s=0.01),
            faults=FaultInjector(submit_failure_rate=0.4, seed=3),
        )
        result = wf.run(background)
        assert result.events_of("submit_retry")
        assert result.n_completed == 16

    def test_retries_exhausted_degrades_with_warning(self, setup, tmp_path):
        _, background, runner = setup
        wf = ParallelESSEWorkflow(
            runner,
            config(),
            tmp_path,
            n_workers=4,
            retry=None,  # seed semantics: every failure terminal
            faults=FaultInjector(crash_rate=0.4, seed=0),
        )
        with pytest.warns(DegradedEnsembleWarning):
            result = wf.run(background)
        assert result.degraded
        assert result.n_failed > 0
        assert result.events_of("member_terminal_failure")
        assert result.subspace.rank >= 1  # survivors still span a subspace

    def test_no_faults_no_retry_is_seed_behaviour(self, setup, tmp_path):
        _, background, runner = setup
        result = ParallelESSEWorkflow(
            runner, config(), tmp_path, n_workers=4
        ).run(background)
        assert result.n_retried == 0
        assert result.n_timed_out == 0
        assert not result.degraded


class TestReplay:
    """A faulted run whose retries all succeed is the clean run (ROADMAP 4)."""

    RATES = dict(
        crash_rate=0.15, corrupt_rate=0.15, stall_rate=0.1, submit_failure_rate=0.2
    )
    MAX_ATTEMPTS = 5

    def recoverable_seed(self):
        """A seed that injects every fault class and loses no member."""
        for seed in range(200):
            draws = [
                [
                    FaultInjector(seed=seed, **self.RATES).draw(i, a)
                    for a in range(1, self.MAX_ATTEMPTS + 1)
                ]
                for i in range(16)
            ]
            first = {row[0] for row in draws}
            if first >= {FaultKind.CRASH, FaultKind.CORRUPT, FaultKind.STALL} and all(
                None in row for row in draws
            ):
                return seed
        raise AssertionError("no recoverable seed in range")

    def test_healed_faulted_run_equals_clean_run(self, setup, tmp_path):
        _, background, runner = setup
        clean = ParallelESSEWorkflow(
            runner, config(), tmp_path / "clean", n_workers=4
        ).run(background)
        seed = self.recoverable_seed()
        faulted = ParallelESSEWorkflow(
            runner,
            config(),
            tmp_path / "faulted",
            n_workers=4,
            retry=RetryPolicy(
                max_attempts=self.MAX_ATTEMPTS,
                backoff_base_s=0.005,
                timeout_seconds=1.0,
                seed=seed,
            ),
            faults=FaultInjector(seed=seed, stall_seconds=30.0, **self.RATES),
        ).run(background)
        assert faulted.n_retried > 0 and faulted.n_timed_out > 0
        assert faulted.events_of("member_corrupt") and faulted.events_of("submit_retry")
        assert not faulted.degraded and faulted.n_failed == 0
        # A member's forecast depends on (root seed, index) only, never on
        # which attempt produced it: same members, same subspace, signs
        # included.  Completion order permutes the columns, so the two
        # factorizations agree to round-off, not bit for bit.
        assert set(faulted.member_ids) == set(clean.member_ids) == set(range(16))
        assert faulted.subspace.rank == clean.subspace.rank
        for name in ("sigmas", "modes"):
            got, expected = getattr(faulted.subspace, name), getattr(clean.subspace, name)
            np.testing.assert_allclose(
                got, expected, rtol=0, atol=1e-10 * np.abs(expected).max()
            )


class TestAttemptRecords:
    def test_attempt_numbered_status_files(self, tmp_path):
        status = StatusDirectory(tmp_path)
        status.write("pemodel", 3, TaskStatus.MODEL_FAILURE, attempt=1)
        status.write("pemodel", 3, TaskStatus.SUCCESS, attempt=2)
        # latest outcome drives restart; history keeps both attempts
        assert status.read("pemodel", 3) == TaskStatus.SUCCESS
        assert status.attempt_history("pemodel", 3) == {
            1: TaskStatus.MODEL_FAILURE,
            2: TaskStatus.SUCCESS,
        }
        counts = status.attempt_counts("pemodel")
        assert counts[3][TaskStatus.MODEL_FAILURE] == 1
        assert counts[3][TaskStatus.SUCCESS] == 1

    def test_attempt_files_do_not_confuse_completed_indices(self, tmp_path):
        status = StatusDirectory(tmp_path)
        status.write("pemodel", 0, TaskStatus.SUCCESS, attempt=2)
        assert status.completed_indices("pemodel") == {0: TaskStatus.SUCCESS}
        assert status.successful_indices("pemodel") == [0]

    def test_retryable_classification(self):
        assert TaskStatus.MODEL_FAILURE.is_retryable
        assert TaskStatus.IO_FAILURE.is_retryable
        assert TaskStatus.TIMED_OUT.is_retryable
        assert not TaskStatus.SUCCESS.is_retryable
        assert not TaskStatus.CANCELLED.is_retryable

    def test_validation(self, tmp_path):
        status = StatusDirectory(tmp_path)
        with pytest.raises(ValueError, match="attempt"):
            status.write("pemodel", 0, TaskStatus.SUCCESS, attempt=0)
