"""The one fault-tolerant task pool behind every bag of independent tasks.

The paper's Fig 4 turns ESSE into independent, failure-tolerant tasks;
ensemble members and analysis tiles (local regions update independently)
both have that shape, so :class:`TaskPool` holds the mechanics once
(``docs/FAILURE_MODEL.md``):

- a per-task attempt counter and one span per in-process attempt,
- transient submission failures retried up to
  :attr:`TaskPool.MAX_SUBMIT_TRIES`,
- failed attempts resubmitted after the
  :class:`~repro.workflow.policies.RetryPolicy` deterministic backoff,
- attempts running past the policy's straggler deadline cancelled and
  replaced, their late results ignored,
- a seedable :class:`~repro.workflow.faults.FaultInjector`, keyed by the
  pool's task kind, injecting STALL / CRASH / SUBMIT_FAILURE on demand,
- tasks out of retries resolved as *lost*, for the client to degrade on.

CORRUPT is the one client-specific fault: the pool reports the draw to
the task; what a torn output looks like and who detects it (through
:meth:`TaskPool.fail` or its own validation) is the client's.  Time comes
only from the telemetry clock and randomness only from the seeded
policy/injector streams, so a fixed seed reproduces the exact retry
schedule and fault sequence.  :class:`TileTaskPool`, kind ``"tile"``, is
the tiled analysis's ``task_runner`` (``docs/ASSIMILATION.md``).
"""

from __future__ import annotations

import heapq
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.workflow.faults import FaultInjector, FaultKind
from repro.workflow.policies import RetryPolicy

#: One task attempt: ``task(index, attempt, corrupt, cancel)`` returns
#: ``(ok, value, error)``.  ``corrupt`` is the injector's CORRUPT draw
#: (tear the output the way this kind of task tears it); ``cancel`` is
#: the attempt's cooperative-cancel event (None in a worker process).
Task = Callable[[int, int, bool, "threading.Event | None"], tuple]


@dataclass(frozen=True)
class TaskOutcome:
    """What became of one attempt, or one submission try, of one task."""

    index: int
    attempt: int
    ok: bool
    value: object = None
    error: str | None = None
    #: Cancelled past the straggler deadline after running ``elapsed`` s.
    timed_out: bool = False
    elapsed: float = 0.0
    #: Nonzero when the *submission* failed on this try and no attempt ran.
    submit_try: int = 0
    #: Backoff before the follow-up the pool queued; None when none was.
    retry_delay: float | None = None

    @property
    def lost(self) -> bool:
        """Failed with nothing queued behind it: the task is resolved."""
        return not self.ok and self.retry_delay is None


def _attempt(
    kind: str,
    task: Task,
    faults: FaultInjector | None,
    index: int,
    attempt: int,
    cancel: threading.Event | None,
) -> tuple:
    """Run one attempt under the injector; returns ``(ok, value, error)``."""
    fault = faults.draw(index, attempt, kind=kind) if faults is not None else None
    if fault is not None:
        faults.fire(fault, index, attempt, kind=kind)
    if fault is FaultKind.STALL and faults.stall(cancel):
        return False, None, "stall cancelled"
    if fault is FaultKind.CRASH:
        return False, None, "injected crash"
    try:
        return task(index, attempt, fault is FaultKind.CORRUPT, cancel)
    except Exception as exc:
        return False, None, f"task error: {exc!r}"


# Worker processes receive (kind, task, faults) once through the executor
# initializer, as remote hosts in the paper receive their job description;
# attempts then travel as (index, attempt) and return (ok, value, error).
_WORKER: dict = {}


def _process_worker_init(payload: bytes) -> None:
    _WORKER["kind"], _WORKER["task"], _WORKER["faults"] = pickle.loads(payload)


def _process_attempt(index: int, attempt: int) -> tuple:
    return _attempt(
        _WORKER["kind"], _WORKER["task"], _WORKER["faults"], index, attempt, None
    )


class TaskPool:
    """Retry, backoff, straggler replacement and loss for one bag of tasks.

    One pool serves one run: enter it (the executor lives for the ``with``
    block, and leaving waits for running attempts), :meth:`submit` task
    indices as they become wanted, and :meth:`poll` from one thread.

    Parameters
    ----------
    kind:
        Task kind: the injector's draw key, the attempt span name and
        the ``kind`` label of the metrics.
    task:
        The :data:`Task` every attempt calls.  With ``processes`` it is
        pickled to the workers once and must carry its own context.
    n_workers:
        Executor width.
    processes:
        Run attempts in worker processes instead of threads.  Process
        attempts cannot be cancelled cooperatively and record no span,
        so they are exempt from straggler handling.
    retry:
        Resubmission policy; None makes every failure terminal.
    faults:
        Deterministic fault injector; None runs fault-free.
    telemetry:
        Span recorder; also supplies the pool's only clock.
    metrics:
        Optional registry fed ``task_seconds`` / ``task_retries`` /
        ``task_timeouts``, labelled with ``kind``.
    poll_interval:
        :meth:`run`'s polling period, and the delay before a failed
        submission is retried when there is no retry policy (s).
    parent_span:
        Parent of the attempt spans.
    """

    #: Bound on transient-submit retries per task before the submission
    #: path is declared dead (guards a pathological injector).
    MAX_SUBMIT_TRIES = 50

    def __init__(
        self,
        kind: str,
        task: Task,
        n_workers: int,
        processes: bool = False,
        retry: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
        telemetry=None,
        metrics: MetricsRegistry | None = None,
        poll_interval: float = 0.005,
        parent_span=None,
    ):
        self.kind = kind
        self.task = task
        self.n_workers = n_workers
        self.processes = processes
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        self.poll_interval = poll_interval
        self.parent_span = parent_span
        self._clock = self.telemetry.clock
        self.n_retried = 0  # follow-up attempts queued
        self.n_timed_out = 0  # straggler attempts cancelled
        self._executor = None
        self._accepting = True  # False once cancel_pending() ran
        self._attempts: dict[int, int] = {}  # current attempt per task
        self._submit_tries: dict[int, int] = {}
        #: task -> (attempt, future, cancel event) of its latest attempt
        self._inflight: dict[int, tuple[int, Future, threading.Event | None]] = {}
        self._retry_heap: list[tuple[float, int]] = []  # (ready_at, task)
        #: (task, attempt) pairs already judged (straggler-cancelled or
        #: failed by the client): their own late result is ignored.
        self._abandoned: set[tuple[int, int]] = set()
        self._resolved: set[int] = set()  # delivered a result, or lost
        self._lost: set[int] = set()
        self._outcomes: list[TaskOutcome] = []  # handed out by the next poll
        #: (task, attempt) -> when poll() first saw it running; poll() only.
        self._started_at: dict[tuple[int, int], float] = {}

    # -- executor lifetime ---------------------------------------------------

    def __enter__(self) -> "TaskPool":
        if self.processes:
            payload = pickle.dumps((self.kind, self.task, self.faults))
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_process_worker_init,
                initargs=(payload,),
            )
        else:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        return self

    def __exit__(self, *exc_info) -> None:
        # Waits for running attempts; a last poll() then sees their results.
        self._executor.shutdown(wait=True)

    # -- bookkeeping the client reads ------------------------------------------

    @property
    def all_resolved(self) -> bool:
        """Whether every submitted task delivered a result or was lost."""
        return len(self._resolved) == len(self._attempts)

    def resolved(self, indices: Iterable[int]) -> bool:
        """Whether every task in ``indices`` delivered a result or was lost."""
        return self._resolved.issuperset(indices)

    @property
    def lost(self) -> frozenset[int]:
        """Tasks that failed with no retry left."""
        return frozenset(self._lost)

    # -- one attempt (worker thread) -------------------------------------------

    def _thread_attempt(
        self, index: int, attempt: int, cancel: threading.Event
    ) -> tuple:
        started = self._clock()
        with self.telemetry.span(
            self.kind, parent=self.parent_span, index=index, attempt=attempt
        ) as span:
            result = _attempt(self.kind, self.task, self.faults, index, attempt, cancel)
            span.set(ok=result[0])
        if self.metrics is not None:
            self.metrics.histogram("task_seconds", kind=self.kind).observe(
                self._clock() - started
            )
        return result

    # -- the mechanics -----------------------------------------------------------

    def submit(self, index: int) -> None:
        """Enter task ``index`` into the pool (attempt 1)."""
        self._attempts[index] = 1
        self._launch(index, self._clock())

    def _launch(self, index: int, now: float) -> None:
        """Submit the task's current attempt; the submission may itself fail."""
        attempt = self._attempts[index]
        tries = self._submit_tries[index] = self._submit_tries.get(index, 0) + 1
        if self.faults is not None and self.faults.submit_fails(
            index, tries, kind=self.kind
        ):
            self.faults.fire(FaultKind.SUBMIT_FAILURE, index, tries, kind=self.kind)
            delay = None
            if tries >= self.MAX_SUBMIT_TRIES:
                self._resolved.add(index)
                self._lost.add(index)
            else:
                delay = (
                    self.retry.backoff_seconds(index, min(tries, 8))
                    if self.retry is not None
                    else self.poll_interval
                )
                heapq.heappush(self._retry_heap, (now + delay, index))
            self._outcomes.append(
                TaskOutcome(
                    index,
                    attempt,
                    False,
                    error="submit failure" if delay is not None
                    else "submit failures exhausted",
                    submit_try=tries,
                    retry_delay=delay,
                )
            )
            return
        if self.processes:
            cancel = None
            future = self._executor.submit(_process_attempt, index, attempt)
        else:
            cancel = threading.Event()
            future = self._executor.submit(
                self._thread_attempt, index, attempt, cancel
            )
        self._inflight[index] = (attempt, future, cancel)

    def _failed(
        self, index: int, attempt: int, now: float, error: str, **fields
    ) -> TaskOutcome:
        """Queue the follow-up attempt, or resolve the task as lost."""
        delay = None
        if (
            self._accepting
            and self.retry is not None
            and self.retry.retries_left(attempt)
        ):
            self._attempts[index] = attempt + 1
            delay = self.retry.backoff_seconds(index, attempt)
            heapq.heappush(self._retry_heap, (now + delay, index))
            self.n_retried += 1
            if self.metrics is not None:
                self.metrics.counter("task_retries", kind=self.kind).inc()
        else:
            self._resolved.add(index)
            self._lost.add(index)
        return TaskOutcome(
            index, attempt, False, error=error, retry_delay=delay, **fields
        )

    def fail(self, index: int, attempt: int, why: str) -> TaskOutcome | None:
        """The client found ``attempt``'s output bad: retry it or lose it.

        Returns None for a stale report -- the attempt was superseded or
        already judged -- so re-flagging one torn output never burns a
        retry the newer attempt has not earned.
        """
        key = (index, attempt)
        if attempt != self._attempts.get(index) or key in self._abandoned:
            return None
        self._abandoned.add(key)
        self._resolved.discard(index)
        return self._failed(index, attempt, self._clock(), why)

    def poll(self, now: float) -> list[TaskOutcome]:
        """Advance the pool to ``now``; returns what happened since the last poll.

        Launches the retries whose backoff elapsed, then makes one pass
        over the in-flight attempts: finished ones are judged (a failed
        one is retried or lost), running ones past the straggler
        deadline are cancelled and replaced.  The deadline counts from
        the first poll that saw the attempt running, so time spent queued
        behind busy workers is not held against it.
        """
        while self._accepting and self._retry_heap and self._retry_heap[0][0] <= now:
            _, index = heapq.heappop(self._retry_heap)
            if index not in self._resolved:
                self._launch(index, now)
        deadline = self.retry.timeout_seconds if self.retry is not None else None
        for index, (attempt, future, cancel) in list(self._inflight.items()):
            key = (index, attempt)
            if future.done():
                del self._inflight[index]
                self._started_at.pop(key, None)
                if future.cancelled() or key in self._abandoned:
                    continue
                try:
                    ok, value, error = future.result()
                except Exception as exc:  # worker infrastructure died
                    ok, value, error = False, None, f"worker error: {exc!r}"
                if ok:
                    self._resolved.add(index)
                    self._outcomes.append(TaskOutcome(index, attempt, True, value))
                else:
                    self._outcomes.append(
                        self._failed(index, attempt, now, error or "failure")
                    )
            elif (
                deadline is not None
                and cancel is not None  # process attempts are exempt
                and key not in self._abandoned
            ):
                started = self._started_at.get(key)
                if started is None:
                    if future.running():
                        self._started_at[key] = now
                    continue
                if now - started <= deadline:
                    continue
                del self._started_at[key]
                self._abandoned.add(key)
                cancel.set()  # frees the pool slot mid-stall
                self.n_timed_out += 1
                if self.metrics is not None:
                    self.metrics.counter("task_timeouts", kind=self.kind).inc()
                self._outcomes.append(
                    self._failed(
                        index,
                        attempt,
                        now,
                        "straggler timeout",
                        timed_out=True,
                        elapsed=now - started,
                    )
                )
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def cancel_pending(self) -> list[int]:
        """Stop launching: the rest of the bag is superfluous.

        Drops queued retries, cancels attempts that have not started
        (their task indices are returned) and releases in-flight injected
        stalls -- draws are pure, so the pool can tell which running
        attempts are stalls without asking the worker.  Running attempts
        finish; from here on a failure is final.
        """
        self._accepting = False
        self._retry_heap.clear()
        cancelled = []
        for index, (attempt, future, cancel) in list(self._inflight.items()):
            if future.cancel():
                del self._inflight[index]
                cancelled.append(index)
            elif (
                cancel is not None
                and self.faults is not None
                and not future.done()
                and self.faults.draw(index, attempt, kind=self.kind)
                is FaultKind.STALL
            ):
                self._abandoned.add((index, attempt))
                cancel.set()
        return cancelled

    def run(self, indices: Iterable[int]) -> Iterator[TaskOutcome]:
        """Submit every index, then poll until each is resolved.

        Yields every outcome as it is observed, retries and timeouts
        included; a task's last outcome is ``ok`` or ``lost``.
        """
        with self:
            for index in indices:
                self.submit(index)
            while True:
                yield from self.poll(self._clock())
                if self.all_resolved:
                    return
                time.sleep(self.poll_interval)


class _CorruptResult:
    """Sentinel standing in for a torn tile output; fails validation."""


_CORRUPT = _CorruptResult()


class TileTaskPool:
    """Runs tile-analysis closures through a :class:`TaskPool` of kind ``"tile"``.

    A tile whose retries are exhausted resolves to None; the analysis
    keeps that tile's prior and raises
    :class:`~repro.core.taskmodel.DegradedEnsembleWarning`.

    Parameters
    ----------
    n_workers:
        Thread-pool width (tile tasks release the GIL inside BLAS).
    retry, faults, telemetry, metrics, poll_interval:
        The :class:`TaskPool`'s; an injected CORRUPT replaces the tile's
        result with a payload that fails validation.
    validate:
        Result predicate; a falsy verdict counts as a failed attempt
        (default: the result is neither None nor the injected-corruption
        sentinel).

    Use :meth:`run` as the ``task_runner`` of a
    :class:`~repro.core.assimilation.TiledESSEAnalysis`.
    """

    def __init__(
        self,
        n_workers: int = 4,
        retry: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
        telemetry=None,
        metrics: MetricsRegistry | None = None,
        poll_interval: float = 0.005,
        validate: Callable[[object], bool] | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.n_workers = int(n_workers)
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics
        self.poll_interval = float(poll_interval)
        self.validate = validate if validate is not None else self._default_validate

    @staticmethod
    def _default_validate(result) -> bool:
        """A usable tile result: present and not a corrupted payload."""
        return result is not None and not isinstance(result, _CorruptResult)

    def run(self, tasks: Sequence[Callable[[], object]]) -> list:
        """Execute every task; return results in task order, None = lost."""
        tasks = list(tasks)
        results: list = [None] * len(tasks)
        if not tasks:
            return results

        def attempt(index, attempt_no, corrupt, cancel):
            value = tasks[index]()
            if corrupt:
                value = _CORRUPT  # the work was done; its output is torn
            if self.validate(value):
                return True, value, None
            return False, None, "invalid result"

        with self.telemetry.span("tilepool.run", tasks=len(tasks)) as root:
            pool = TaskPool(
                "tile",
                attempt,
                self.n_workers,
                retry=self.retry,
                faults=self.faults,
                telemetry=self.telemetry,
                metrics=self.metrics,
                poll_interval=self.poll_interval,
                parent_span=root,
            )
            for out in pool.run(range(len(tasks))):
                if out.ok:
                    results[out.index] = out.value
                    continue
                if out.timed_out:
                    self.telemetry.event(
                        "tile_straggler_cancel", index=out.index, attempt=out.attempt
                    )
                if out.lost:
                    self.telemetry.event(
                        "tile_terminal_failure", index=out.index, why=out.error
                    )
                elif not out.submit_try:
                    self.telemetry.event(
                        "tile_retry",
                        index=out.index,
                        attempt=out.attempt + 1,
                        why=out.error,
                    )
            root.set(
                ok=len(tasks) - len(pool.lost),
                failed=len(pool.lost),
                retried=pool.n_retried,
                timed_out=pool.n_timed_out,
            )
        return results
