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
    RetryPolicy,
    StatusDirectory,
    TaskStatus,
)
from repro.workflow.parallel import MemberPool
from tests.workflow.conftest import attempt_records


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


class CrashMemberThree(FaultInjector):
    """Member 3 crashes at every attempt (module-level: picklable)."""

    def draw(self, index, attempt, kind="pemodel"):
        return FaultKind.CRASH if index == 3 else None


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
        # every injected crash left its attempt-numbered failure record,
        # and each one was retried
        crashed = attempt_records(wf.status, TaskStatus.MODEL_FAILURE)
        assert crashed == {
            f"pemodel.{e.index}.a{e.attempt}.status"
            for e in wf.faults.fault_sequence()
        }
        assert len(crashed) == result.n_retried

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
            # Members 6 and 11 tear batch 6-11 at attempt 1, which fails
            # all six; member 7 then draws CORRUPT at attempts 2 and 3.
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.01),
            faults=FaultInjector(corrupt_rate=0.3, seed=1),
        )
        result = wf.run(background)
        assert result.events_of("member_corrupt")
        assert result.n_retried > 0
        assert result.n_completed == 16  # healed: torn writes rerun
        # the torn attempt is on record as an IO failure
        assert attempt_records(wf.status, TaskStatus.IO_FAILURE)

    def test_torn_last_output_is_retried_not_lost(self, setup, tmp_path):
        """ROADMAP defect (a): the main loop must not leave on all-resolved
        before the differ has read the last successful batch file."""
        _, background, runner = setup
        last = config().max_ensemble_size - 1

        class TearLastMember(FaultInjector):
            def draw(self, index, attempt, kind="pemodel"):
                torn = (index, attempt) == (last, 1)
                return FaultKind.CORRUPT if torn else None

        def run(workdir, **kw):
            # One worker: batches finish in index order, so the one holding
            # ``last`` (members 12-15) is the final output the differ sees.
            wf = ParallelESSEWorkflow(runner, config(), workdir, n_workers=1, **kw)
            return wf.run(background)

        clean = run(tmp_path / "clean")
        faulted = run(
            tmp_path / "faulted",
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.005),
            faults=TearLastMember(),
        )
        # the torn batch file fails exactly its members back to the pool
        torn = [e.detail for e in faulted.events_of("member_corrupt")]
        assert torn == [f"member={i} attempt=1" for i in range(12, 16)]
        assert faulted.n_retried == 4
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
            # a batch of six gets 6 x 0.25 s before its members time out
            retry=RetryPolicy(
                max_attempts=4, backoff_base_s=0.01, timeout_seconds=0.25
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
        assert attempt_records(wf.status, TaskStatus.TIMED_OUT)

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
        """A seed that injects every fault class and loses no member.

        A member's first attempt may fail with its batch (a torn file, a
        stall), so each needs a clean draw among its retries alone.
        """
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
                None in row[1:] for row in draws
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
                timeout_seconds=0.25,
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


class TestBatchedMemberPool:
    """A pool task is a batch of members; the member stays the unit of
    retry, loss and counting (paper Sec 4.2 job arrays)."""

    def test_torn_batch_file_fails_exactly_its_members(self, setup, tmp_path):
        _, background, runner = setup

        class TearMemberFive(FaultInjector):
            def draw(self, index, attempt, kind="pemodel"):
                return FaultKind.CORRUPT if (index, attempt) == (5, 1) else None

        wf = ParallelESSEWorkflow(
            runner,
            config(),
            tmp_path,
            n_workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=TearMemberFive(),
        )
        result = wf.run(background)
        # the first batch is members 0-5 (stage 4 x margin 1.5)
        torn = sorted(int(e.detail.split()[0][7:]) for e in result.events_of("member_corrupt"))
        assert torn == list(range(6))
        assert result.n_retried == 6 and result.n_completed == 16
        assert attempt_records(wf.status, TaskStatus.IO_FAILURE) == {
            f"pemodel.{i}.a1.status" for i in range(6)
        }

    def test_lost_members_are_delivered_one_by_one(self, setup, tmp_path):
        _, background, runner = setup

        class CrashOneAndTwo(FaultInjector):
            def draw(self, index, attempt, kind="pemodel"):
                return FaultKind.CRASH if index in (1, 2) else None

        delivered = []
        status = StatusDirectory(tmp_path / "status")
        with MemberPool(
            runner, background, tmp_path, status, 2, 4, faults=CrashOneAndTwo()
        ) as members:
            members.propagate(range(4), delivered.append)
        assert sorted(r.member_index for r in delivered) == [0, 1, 2, 3]
        lost = sorted((r.member_index, r.error) for r in delivered if not r.ok)
        assert lost == [(1, "injected crash"), (2, "injected crash")]
        # one batch record for the two that ran, one record per lost member
        names = sorted(path.name for path in status.root.iterdir())
        assert names == ["pemodel.0-3.a1.status", "pemodel.1.a1.status", "pemodel.2.a1.status"]

    @staticmethod
    def suite_injector(seed, n_members=24, attempts=4):
        """The benchmark's ``mtc_pool`` fault search: the first derived seed
        that crashes some first attempt and exhausts no member."""
        for offset in range(1000):
            faults = FaultInjector(crash_rate=0.1, seed=seed * 1000 + offset)
            crashes = [
                [faults.draw(i, a) is FaultKind.CRASH for a in range(1, attempts + 1)]
                for i in range(n_members)
            ]
            if any(row[0] for row in crashes) and not any(all(row) for row in crashes):
                return faults, {i for i, row in enumerate(crashes) if row[0]}
        raise AssertionError("no fault seed")

    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_fault_schedule_retries_only_crashed_members(
        self, setup, tmp_path, seed
    ):
        """The ``mtc_pool`` faulted run's shape: 24 members in batches 8/8/2/6."""
        _, background, runner = setup
        faults, crashed_first = self.suite_injector(seed)
        result = ParallelESSEWorkflow(
            runner,
            config(initial_ensemble_size=12, max_ensemble_size=24, convergence_tolerance=0.99999),
            tmp_path,
            n_workers=2,
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.01, seed=seed),
            faults=faults,
        ).run(background)
        assert result.n_retried > 0 and result.n_failed == 0 and not result.degraded
        assert result.ensemble_size == 24
        first_retries = {
            int(e.detail.split()[0][7:])
            for e in result.events_of("retry")
            if "attempt=2" in e.detail
        }
        assert first_retries == crashed_first  # batch-mates were not retried

    def test_counts_are_in_members(self, setup, tmp_path):
        """Completed, failed, cancelled and retried count members, not batches."""
        _, background, runner = setup
        # One worker, a pool three stages deep: converged at the stage-2
        # check (16), batches 24-31 to 40-47 are still queued.
        wf = ParallelESSEWorkflow(
            runner,
            config(initial_ensemble_size=8, max_ensemble_size=64, convergence_tolerance=0.05),
            tmp_path / "wf",
            n_workers=1,
            pool_margin=3.0,
            faults=CrashMemberThree(),
        )
        with pytest.warns(DegradedEnsembleWarning):
            result = wf.run(background)
        submitted = int(result.events_of("enlarge")[-1].detail.split("=")[1])
        assert submitted == 48 and result.n_failed == 1
        assert result.n_cancelled in (16, 24)  # whole batches, counted in members
        assert len(result.events_of("cancel")) == result.n_cancelled
        assert result.n_completed + result.n_failed + result.n_cancelled == submitted
        assert result.n_completed == sum(
            s == TaskStatus.SUCCESS for s in wf.status.completed_indices("pemodel").values()
        )
        processes = ParallelESSEWorkflow(
            runner,
            config(max_ensemble_size=8, convergence_tolerance=1.0),
            tmp_path / "processes",
            n_workers=2,
            use_processes=True,
            pool_margin=1.0,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            faults=CrashMemberThree(),
        )
        with pytest.warns(DegradedEnsembleWarning):
            run = processes.run(background)
        # member 3 alone is retried, twice; its batch-mates land at once
        assert run.n_retried == 2 and run.n_failed == 1
        assert sorted(run.member_ids) == [0, 1, 2, 4, 5, 6, 7]


class TestAttemptRecords:
    def test_attempt_numbered_status_files(self, tmp_path):
        status = StatusDirectory(tmp_path)
        status.write("pemodel", 3, TaskStatus.MODEL_FAILURE, attempt=1)
        status.write("pemodel", 3, TaskStatus.SUCCESS, attempt=2)
        # latest outcome drives restart; the attempt records keep both
        assert status.read("pemodel", 3) == TaskStatus.SUCCESS
        assert attempt_records(status, TaskStatus.MODEL_FAILURE) == {
            "pemodel.3.a1.status"
        }
        assert attempt_records(status, TaskStatus.SUCCESS) == {"pemodel.3.a2.status"}

    def test_attempt_files_do_not_confuse_completed_indices(self, tmp_path):
        status = StatusDirectory(tmp_path)
        status.write("pemodel", 0, TaskStatus.SUCCESS, attempt=2)
        assert status.completed_indices("pemodel") == {0: TaskStatus.SUCCESS}

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
