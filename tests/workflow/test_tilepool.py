"""The tile client of the task pool: results, validation, telemetry.

The pool mechanics themselves (determinism, stragglers, submit failures,
loss) are stated once in ``test_pool.py`` for every task kind; the
fault-injected runs here check them end to end through the tile client.
"""

import numpy as np
import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import TraceRecorder
from repro.workflow.faults import FaultInjector, FaultKind
from repro.workflow.policies import RetryPolicy
from repro.workflow.pool import TileTaskPool, _CorruptResult


def make_tasks(n):
    return [lambda k=k: {"tile": k} for k in range(n)]


def find_recoverable_seed(rates, max_attempts, n_tasks, kind="tile"):
    """A seed where every task index has a clean draw within the budget.

    The fault draws depend only on (seed, kind, index, attempt), so the
    search is deterministic and the chosen seed guarantees full recovery.
    """
    for seed in range(200):
        injector = FaultInjector(seed=seed, **rates)
        if all(
            any(
                injector.draw(idx, att, kind=kind) is None
                for att in range(1, max_attempts + 1)
            )
            for idx in range(n_tasks)
        ):
            return seed
    raise AssertionError("no recoverable seed in range")


class TestPlainRuns:
    def test_results_in_task_order(self):
        results = TileTaskPool(n_workers=3).run(make_tasks(7))
        assert results == [{"tile": k} for k in range(7)]

    def test_empty_task_list(self):
        assert TileTaskPool().run([]) == []

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="n_workers"):
            TileTaskPool(n_workers=0)

    def test_task_exception_without_retry_is_terminal(self):
        def boom():
            raise RuntimeError("tile exploded")

        results = TileTaskPool(n_workers=2).run([boom] + make_tasks(2)[1:])
        assert results[0] is None
        assert results[1:] == [{"tile": 1}]

    def test_none_result_fails_default_validation(self):
        results = TileTaskPool().run([lambda: None])
        assert results == [None]


class TestRetries:
    def test_exception_retried_to_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        metrics = MetricsRegistry()
        pool = TileTaskPool(
            n_workers=1,
            retry=RetryPolicy(max_attempts=5, backoff_base_s=0.001),
            metrics=metrics,
        )
        assert pool.run([flaky]) == ["ok"]
        assert calls["n"] == 3
        assert metrics.counter("task_retries", kind="tile").value == 2

    def test_injected_crashes_recovered(self):
        rates = {"crash_rate": 0.4}
        seed = find_recoverable_seed(rates, max_attempts=5, n_tasks=8)
        pool = TileTaskPool(
            n_workers=4,
            retry=RetryPolicy(max_attempts=5, backoff_base_s=0.001, seed=seed),
            faults=FaultInjector(seed=seed, **rates),
        )
        assert pool.run(make_tasks(8)) == [{"tile": k} for k in range(8)]

    def test_corruption_recovered(self):
        rates = {"corrupt_rate": 0.5}
        seed = find_recoverable_seed(rates, max_attempts=4, n_tasks=4)
        injector = FaultInjector(seed=seed, **rates)
        pool = TileTaskPool(
            n_workers=2,
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.001, seed=seed),
            faults=injector,
        )
        assert pool.run(make_tasks(4)) == [{"tile": k} for k in range(4)]
        assert any(
            e.kind is FaultKind.CORRUPT for e in injector.fault_sequence()
        )

    def test_exhausted_retries_resolve_to_none(self):
        pool = TileTaskPool(
            n_workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001),
            faults=FaultInjector(crash_rate=1.0),
        )
        recorder_results = pool.run(make_tasks(3))
        assert recorder_results == [None, None, None]

    def test_fault_sequence_deterministic_across_runs(self):
        def one_run():
            injector = FaultInjector(crash_rate=0.3, corrupt_rate=0.2, seed=9)
            pool = TileTaskPool(
                n_workers=4,
                retry=RetryPolicy(max_attempts=4, backoff_base_s=0.001, seed=9),
                faults=injector,
            )
            results = pool.run(make_tasks(10))
            return results, injector.fault_sequence()

        first = one_run()
        second = one_run()
        assert first == second


class TestStragglers:
    def test_stalled_attempt_cancelled_and_replaced(self):
        # Find a seed whose first attempt on task 0 stalls but whose
        # second attempt runs clean: the pool must cancel the 5 s stall
        # at the 0.05 s deadline and finish via the resubmission.
        seed = next(
            s
            for s in range(200)
            if FaultInjector(stall_rate=0.6, seed=s).draw(0, 1, kind="tile")
            is FaultKind.STALL
            and FaultInjector(stall_rate=0.6, seed=s).draw(0, 2, kind="tile")
            is None
        )
        metrics = MetricsRegistry()
        recorder = TraceRecorder()
        pool = TileTaskPool(
            n_workers=2,
            retry=RetryPolicy(
                max_attempts=3,
                backoff_base_s=0.001,
                timeout_seconds=0.05,
                seed=seed,
            ),
            faults=FaultInjector(stall_rate=0.6, stall_seconds=5.0, seed=seed),
            telemetry=recorder,
            metrics=metrics,
        )
        from repro.telemetry.clock import MONOTONIC

        t0 = MONOTONIC()
        results = pool.run([lambda: "done"])
        elapsed = MONOTONIC() - t0
        assert results == ["done"]
        assert elapsed < 2.0  # cancelled, not served for the full 5 s
        assert metrics.counter("task_timeouts", kind="tile").value >= 1
        assert any(
            e.kind == "tile_straggler_cancel" for e in recorder.events()
        )


class TestSubmitFailures:
    def test_transient_submit_failures_recovered(self):
        rates = {"submit_failure_rate": 0.5}
        seed = next(
            s
            for s in range(200)
            if not all(
                FaultInjector(seed=s, **rates).submit_fails(
                    idx, 1, kind="tile"
                )
                for idx in range(3)
            )
            and any(
                FaultInjector(seed=s, **rates).submit_fails(
                    idx, 1, kind="tile"
                )
                for idx in range(3)
            )
        )
        injector = FaultInjector(seed=seed, **rates)
        pool = TileTaskPool(
            n_workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001, seed=seed),
            faults=injector,
        )
        # Submission retries are bounded by MAX_SUBMIT_TRIES = 50; with a
        # 0.5 failure rate every task finds a clean submission draw well
        # inside the budget.
        assert pool.run(make_tasks(3)) == [{"tile": k} for k in range(3)]
        assert any(
            e.kind is FaultKind.SUBMIT_FAILURE
            for e in injector.fault_sequence()
        )


class TestTelemetry:
    def test_spans_and_counters(self):
        recorder = TraceRecorder()
        metrics = MetricsRegistry()
        pool = TileTaskPool(
            n_workers=2, telemetry=recorder, metrics=metrics
        )
        pool.run(make_tasks(4))
        run_spans = [s for s in recorder.spans() if s.name == "tilepool.run"]
        assert len(run_spans) == 1
        attrs = dict(run_spans[0].attrs)
        assert attrs["ok"] == 4
        assert attrs["failed"] == 0
        tile_spans = [s for s in recorder.spans() if s.name == "tile"]
        assert len(tile_spans) == 4
        hist = metrics.histogram("task_seconds", kind="tile")
        assert hist.count == 4


class TestSentinel:
    def test_corrupt_sentinel_fails_default_validate(self):
        assert not TileTaskPool._default_validate(_CorruptResult())
        assert not TileTaskPool._default_validate(None)
        assert TileTaskPool._default_validate(np.zeros(3))
