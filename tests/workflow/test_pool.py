"""The task-pool contract, stated once for every task kind.

Members (kind ``"pemodel"``) and analysis tiles (kind ``"tile"``) run on
the same :class:`~repro.workflow.pool.TaskPool`; everything here is
parametrized over the kind, which only keys the fault draws, the span
name and the metric labels.  Client-specific behaviour (status records,
differ corruption flags, tile prior kept on loss) is tested with the
clients in ``test_faults.py`` and ``test_tilepool.py``.
"""

import threading

import pytest

from repro.telemetry.clock import MONOTONIC
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import TraceRecorder
from repro.workflow.faults import FaultInjector, FaultKind
from repro.workflow.policies import RetryPolicy
from repro.workflow.pool import TaskPool

KINDS = ("pemodel", "tile")

pytestmark = pytest.mark.parametrize("kind", KINDS)


def each(fn):
    """A batch task from a per-index ``fn(index, attempt, corrupt, cancel)``."""

    def task(indices, attempt, corrupt, cancel):
        return [fn(i, attempt, torn, cancel) for i, torn in zip(indices, corrupt)]

    return task


def echo(indices, attempt, corrupt, cancel):
    """A task that always succeeds (module-level: picklable for processes)."""
    return [(True, (i, attempt, torn), None) for i, torn in zip(indices, corrupt)]


def final_outcomes(outcomes):
    """index -> the outcome that resolved it."""
    return {out.index: out for out in outcomes if out.ok or out.lost}


def poll_until(pool, predicate, seconds=10.0):
    """Poll ``pool`` until ``predicate(outcomes so far)``; returns them."""
    seen = []
    deadline = MONOTONIC() + seconds
    while not predicate(seen):
        assert MONOTONIC() < deadline, f"pool stuck; saw {seen}"
        seen.extend(pool.poll(MONOTONIC()))
        threading.Event().wait(0.001)
    return seen


class TestDeterminism:
    def run_once(self, kind, seed):
        faults = FaultInjector(
            crash_rate=0.3, corrupt_rate=0.2, submit_failure_rate=0.2, seed=seed
        )
        retry = RetryPolicy(max_attempts=6, backoff_base_s=0.001, seed=seed)
        pool = TaskPool(kind, echo, 4, retry=retry, faults=faults, poll_interval=0.001)
        return list(pool.run(range(10))), faults, retry

    def test_fixed_seed_reproduces_schedule_and_faults(self, kind):
        first, faults_a, retry = self.run_once(kind, seed=9)
        second, faults_b, _ = self.run_once(kind, seed=9)
        assert faults_a.fault_sequence() == faults_b.fault_sequence()
        assert {e.task_kind for e in faults_a.fault_sequence()} == {kind}
        # transient submit failures and crashes were all recovered from
        assert FaultKind.SUBMIT_FAILURE in {e.kind for e in faults_a.fault_sequence()}
        assert all(out.ok for out in final_outcomes(first).values())
        assert len(final_outcomes(first)) == 10
        retries = [o for o in first if not o.ok and not o.submit_try and not o.lost]
        assert retries  # crashes really were retried
        for out in retries:
            # every backoff is the policy's pure (seed, index, attempt) draw
            assert out.retry_delay == retry.backoff_seconds(out.index, out.attempt)

        def by_task(outcomes):
            return sorted(
                (o.index, o.attempt, o.submit_try, o.ok, o.retry_delay)
                for o in outcomes
            )

        assert by_task(first) == by_task(second)

    def test_draws_are_keyed_by_kind(self, kind):
        other = next(k for k in KINDS if k != kind)
        _, faults, _ = self.run_once(kind, seed=9)
        _, faults_other, _ = self.run_once(other, seed=9)

        def unkeyed(injector):
            return [(e.kind, e.index, e.attempt) for e in injector.fault_sequence()]

        assert unkeyed(faults) != unkeyed(faults_other)

    def test_corrupt_draw_is_reported_to_the_task(self, kind):
        faults = FaultInjector(corrupt_rate=1.0, seed=0)
        (out,) = TaskPool(kind, echo, 1, faults=faults).run([3])
        assert out.ok and out.value == (3, 1, True)
        assert [e.kind for e in faults.fault_sequence()] == [FaultKind.CORRUPT]


class TestStragglers:
    def test_straggler_replaced_late_result_ignored(self, kind):
        second_done = threading.Event()

        def task(index, attempt, corrupt, cancel):
            if attempt == 1:
                # ignores its cancel event and finishes late
                assert second_done.wait(10.0)
                return True, "late", None
            second_done.set()
            return True, "fresh", None

        metrics = MetricsRegistry()
        recorder = TraceRecorder()
        pool = TaskPool(
            kind,
            each(task),
            2,
            retry=RetryPolicy(
                max_attempts=3, backoff_base_s=0.001, timeout_seconds=0.05
            ),
            telemetry=recorder,
            metrics=metrics,
            poll_interval=0.001,
        )
        outcomes = list(pool.run([0]))
        timed_out, done = outcomes
        assert timed_out.timed_out and timed_out.attempt == 1
        assert timed_out.elapsed > 0.05 and timed_out.retry_delay is not None
        assert done.ok and done.attempt == 2 and done.value == "fresh"
        assert pool.n_timed_out == 1 and pool.n_retried == 1
        assert metrics.counter("task_timeouts", kind=kind).value == 1
        # one span per attempt, named after the kind
        spans = [s for s in recorder.spans() if s.name == kind]
        assert sorted(dict(s.attrs)["attempt"] for s in spans) == [1, 2]

    def test_injected_stall_is_cancelled_at_the_deadline(self, kind):
        seed = next(
            s
            for s in range(200)
            if FaultInjector(stall_rate=0.6, seed=s).draw(0, 1, kind=kind)
            is FaultKind.STALL
            and FaultInjector(stall_rate=0.6, seed=s).draw(0, 2, kind=kind) is None
        )
        pool = TaskPool(
            kind,
            echo,
            2,
            retry=RetryPolicy(
                max_attempts=3, backoff_base_s=0.001, timeout_seconds=0.05, seed=seed
            ),
            faults=FaultInjector(stall_rate=0.6, stall_seconds=30.0, seed=seed),
            poll_interval=0.001,
        )
        t0 = MONOTONIC()
        final = final_outcomes(pool.run([0]))
        assert MONOTONIC() - t0 < 5.0  # cancelled, not served for 30 s
        assert final[0].ok and final[0].attempt == 2

    def test_deadline_counts_from_start_not_submit(self, kind):
        def nap(index, attempt, corrupt, cancel):
            threading.Event().wait(0.06)
            return True, index, None

        pool = TaskPool(
            kind,
            each(nap),
            1,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001, timeout_seconds=0.1),
            poll_interval=0.001,
        )
        # one worker: the last task waits ~0.18 s in the queue, past the
        # deadline, yet each attempt runs well inside it once started
        outcomes = list(pool.run(range(4)))
        assert not any(out.timed_out for out in outcomes)
        assert pool.n_timed_out == 0
        assert all(out.ok for out in final_outcomes(outcomes).values())


class TestLoss:
    def test_submit_failures_exhaust_at_the_bound(self, kind):
        faults = FaultInjector(submit_failure_rate=1.0, seed=0)
        pool = TaskPool(
            kind,
            echo,
            1,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=faults,
            poll_interval=0.0005,
        )
        outcomes = list(pool.run([0]))
        assert [o.submit_try for o in outcomes] == list(
            range(1, TaskPool.MAX_SUBMIT_TRIES + 1)
        )
        assert all(o.attempt == 1 for o in outcomes)  # no attempt ever ran
        assert not any(o.lost for o in outcomes[:-1])
        assert outcomes[-1].lost and "exhausted" in outcomes[-1].error
        assert pool.lost == {0} and pool.n_retried == 0

    def test_without_a_policy_every_failure_is_final(self, kind):
        def boom(index, attempt, corrupt, cancel):
            raise RuntimeError("exploded")

        pool = TaskPool(kind, each(boom), 2)
        final = final_outcomes(pool.run(range(3)))
        assert all(out.lost and out.attempt == 1 for out in final.values())
        assert "exploded" in final[0].error
        assert pool.lost == {0, 1, 2}

    def test_task_with_no_retries_left_resolves_as_lost(self, kind):
        metrics = MetricsRegistry()
        pool = TaskPool(
            kind,
            echo,
            2,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001),
            faults=FaultInjector(crash_rate=1.0),
            metrics=metrics,
            poll_interval=0.001,
        )
        outcomes = [o for o in pool.run([0, 1]) if o.index == 1]
        assert [o.attempt for o in outcomes] == [1, 2, 3]
        assert [o.lost for o in outcomes] == [False, False, True]
        assert pool.lost == {0, 1} and pool.n_retried == 4
        assert metrics.counter("task_retries", kind=kind).value == 4


class TestClientFailures:
    def test_stale_fail_does_not_burn_a_retry(self, kind):
        """The PR 4 race: one torn output flagged again after the resubmit."""
        pool = TaskPool(
            kind,
            echo,
            1,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001),
            poll_interval=0.001,
        )
        with pool:
            pool.submit([0])
            poll_until(pool, lambda seen: any(o.ok for o in seen))
            assert pool.all_resolved
            out = pool.fail(0, 1, "corrupt output")
            assert out.retry_delay is not None and not pool.all_resolved
            # the same report again, before and after attempt 2 lands
            assert pool.fail(0, 1, "corrupt output") is None
            seen = poll_until(pool, lambda seen: any(o.ok for o in seen))
            assert [o.attempt for o in seen] == [2]
            assert pool.fail(0, 1, "corrupt output") is None
            assert pool.n_retried == 1 and pool.all_resolved
            # a report for the current attempt is honoured
            assert pool.fail(0, 2, "corrupt output").retry_delay is not None
            poll_until(pool, lambda seen: any(o.ok for o in seen))
            # ... and with the budget spent, the next one loses the task
            assert pool.fail(0, 3, "corrupt output").lost
        assert pool.lost == {0} and pool.n_retried == 2

    def test_cancel_pending_stops_launching(self, kind):
        running, gate = threading.Event(), threading.Event()

        def task(index, attempt, corrupt, cancel):
            running.set()
            assert gate.wait(10.0)
            return False, None, "failed"

        pool = TaskPool(
            kind, each(task), 1, retry=RetryPolicy(backoff_base_s=0.0), poll_interval=0.001
        )
        with pool:
            for index in range(4):
                pool.submit([index])  # one worker: 0 runs, 1-3 queue
            assert running.wait(10.0)
            assert pool.cancel_pending() == [1, 2, 3]
            gate.set()
        (out,) = pool.poll(MONOTONIC())
        # after the cancellation a failure is final: nothing is queued
        assert out.index == 0 and out.lost and pool.n_retried == 0


class TestProcessExecutor:
    def test_crashes_retried_in_worker_processes(self, kind):
        seed = next(
            s
            for s in range(200)
            if FaultInjector(crash_rate=0.5, seed=s).draw(0, 1, kind=kind)
            is FaultKind.CRASH
            and FaultInjector(crash_rate=0.5, seed=s).draw(0, 2, kind=kind) is None
        )
        pool = TaskPool(
            kind,
            echo,
            2,
            processes=True,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001, seed=seed),
            faults=FaultInjector(crash_rate=0.5, seed=seed),
            poll_interval=0.001,
        )
        final = final_outcomes(pool.run([0]))
        assert final[0].ok and final[0].value == (0, 2, False)
        assert pool.n_retried == 1


class TestBatchAttempts:
    """One attempt runs a batch; retries, faults and loss stay per task."""

    def test_crashed_task_is_retried_alone_while_its_batch_mates_land(self, kind):
        class CrashTwoOnce(FaultInjector):
            def draw(self, index, attempt, kind="pemodel"):
                return FaultKind.CRASH if (index, attempt) == (2, 1) else None

        batches = []

        def task(indices, attempt, corrupt, cancel):
            batches.append((indices, attempt))
            return echo(indices, attempt, corrupt, cancel)

        pool = TaskPool(
            kind,
            task,
            1,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=CrashTwoOnce(),
            poll_interval=0.001,
        )
        with pool:
            pool.submit(range(4))
            seen = poll_until(pool, lambda seen: len(final_outcomes(seen)) == 4)
        final = final_outcomes(seen)
        assert {i: final[i].attempt for i in range(4)} == {0: 1, 1: 1, 2: 2, 3: 1}
        assert batches == [((0, 1, 3), 1), ((2,), 2)]  # the crash never ran
        assert pool.n_retried == 1 and not pool.lost

    def test_straggling_batch_times_out_per_task(self, kind):
        released = threading.Event()

        def task(indices, attempt, corrupt, cancel):
            if attempt == 1:
                assert released.wait(10.0)  # ignores its cancel event
            return echo(indices, attempt, corrupt, cancel)

        timeout = 0.05
        pool = TaskPool(
            kind,
            task,
            2,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001, timeout_seconds=timeout),
            poll_interval=0.001,
        )
        with pool:
            pool.submit(range(3))
            seen = poll_until(pool, lambda seen: len(final_outcomes(seen)) == 3)
            released.set()
        timed_out = [out for out in seen if out.timed_out]
        # the batch's deadline is the per-task timeout times its three tasks
        assert sorted(out.index for out in timed_out) == [0, 1, 2]
        assert all(out.elapsed > 3 * timeout for out in timed_out)
        assert all(out.ok and out.attempt == 2 for out in final_outcomes(seen).values())
        assert pool.n_timed_out == 3 and pool.n_retried == 3

    def test_lost_tasks_resolve_one_by_one(self, kind):
        pool = TaskPool(kind, echo, 1, faults=FaultInjector(crash_rate=1.0))
        with pool:
            pool.submit(range(3))
            seen = poll_until(pool, lambda seen: len(seen) == 3)
        assert [(out.index, out.lost) for out in seen] == [(0, True), (1, True), (2, True)]
        assert pool.lost == {0, 1, 2} and pool.all_resolved
