"""The one fault-tolerant task pool behind every bag of independent tasks.

The paper's Fig 4 turns ESSE into independent, failure-tolerant tasks;
ensemble members and analysis tiles (local regions update independently)
both have that shape, so :class:`TaskPool` holds the mechanics once
(``docs/FAILURE_MODEL.md``):

- an *attempt* runs a batch of tasks (the paper's Sec 4.2 job array),
  one span per in-process attempt; the bookkeeping unit stays the task,
- transient submission failures retried up to
  :attr:`TaskPool.MAX_SUBMIT_TRIES`,
- failed tasks resubmitted, each alone, after the
  :class:`~repro.workflow.policies.RetryPolicy` deterministic backoff,
- attempts running past the policy's straggler deadline cancelled and
  their tasks replaced, their late results ignored,
- a seedable :class:`~repro.workflow.faults.FaultInjector`, keyed by the
  pool's task kind, drawing STALL / CRASH / SUBMIT_FAILURE per task,
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
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_RECORDER
from repro.workflow.faults import FaultInjector, FaultKind
from repro.workflow.policies import RetryPolicy

#: One attempt: ``task(indices, attempt, corrupt, cancel)`` returns one
#: ``(ok, value, error)`` per index.  ``corrupt`` holds each index's CORRUPT
#: draw (tear the output the way this kind of task tears it); ``cancel`` is
#: the attempt's cooperative-cancel event (None in a worker process).
Task = Callable[[tuple, int, tuple, "threading.Event | None"], list]


@dataclass(frozen=True)
class TaskOutcome:
    """What became of one task in one attempt, or in one submission try."""

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


@dataclass
class _Launched:
    """One batch attempt in flight, as the polling thread tracks it."""

    indices: tuple[int, ...]
    attempt: int
    future: Future
    cancel: threading.Event | None
    #: When poll() first saw it running; poll() alone reads and writes it.
    started: float | None = None


def _attempt(
    kind: str,
    task: Task,
    faults: FaultInjector | None,
    indices: tuple[int, ...],
    attempt: int,
    cancel: threading.Event | None,
) -> list[tuple]:
    """Run one attempt under the injector; one ``(ok, value, error)`` per index.

    Draws stay per task: a task drawn to crash fails alone while the rest
    run; one drawn to stall holds up its whole batch, as a slow host does.
    """
    draws = [None] * len(indices)
    if faults is not None:
        draws = [faults.draw(index, attempt, kind=kind) for index in indices]
        for index, fault in zip(indices, draws):
            if fault is not None:
                faults.fire(fault, index, attempt, kind=kind)
        if FaultKind.STALL in draws and faults.stall(cancel):
            return [(False, None, "stall cancelled")] * len(indices)
    kept = [k for k, fault in enumerate(draws) if fault is not FaultKind.CRASH]
    ran = tuple(indices[k] for k in kept)
    corrupt = tuple(draws[k] is FaultKind.CORRUPT for k in kept)
    try:
        done = iter(task(ran, attempt, corrupt, cancel) if ran else ())
    except Exception as exc:
        done = iter([(False, None, f"task error: {exc!r}")] * len(ran))
    crashed = (False, None, "injected crash")
    return [crashed if fault is FaultKind.CRASH else next(done) for fault in draws]


# Worker processes receive (kind, task, faults) once through the executor
# initializer, as remote hosts in the paper receive their job description;
# attempts then travel as (indices, attempt) and return their results.
_WORKER: dict = {}


def _process_worker_init(payload: bytes) -> None:
    _WORKER["kind"], _WORKER["task"], _WORKER["faults"] = pickle.loads(payload)


def _process_attempt(indices: tuple[int, ...], attempt: int) -> list[tuple]:
    return _attempt(
        _WORKER["kind"], _WORKER["task"], _WORKER["faults"], indices, attempt, None
    )


class TaskPool:
    """Retry, backoff, straggler replacement and loss for one bag of tasks.

    One pool serves one run: enter it (the executor lives for the ``with``
    block, and leaving waits for running attempts), :meth:`submit` batches
    of task indices as they become wanted, and :meth:`poll` from one
    thread, :meth:`wait` between polls.

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
        Optional registry fed ``task_seconds`` (per attempt) /
        ``task_retries`` / ``task_timeouts`` (per task), labelled with
        ``kind``.
    poll_interval:
        The longest :meth:`wait` blocks, and the delay before a failed
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
        self.n_retried = 0  # follow-up attempts queued, in tasks
        self.n_timed_out = 0  # tasks whose attempt was cancelled as a straggler
        self._executor = None
        self._accepting = True  # False once cancel_pending() ran
        self._attempts: dict[int, int] = {}  # current attempt per task
        self._submit_tries: dict[int, int] = {}
        self._inflight: list[_Launched] = []  # in submission order
        self._retry_heap: list[tuple[float, int]] = []  # (ready_at, task)
        #: (task, attempt) pairs already judged (straggler-cancelled or
        #: failed by the client): their own late result is ignored.
        self._abandoned: set[tuple[int, int]] = set()
        self._resolved: set[int] = set()  # delivered a result, or lost
        self._lost: set[int] = set()
        self._outcomes: list[TaskOutcome] = []  # handed out by the next poll

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
        self, indices: tuple[int, ...], attempt: int, cancel: threading.Event
    ) -> list[tuple]:
        started = self._clock()
        attrs = dict(index=indices[0], attempt=attempt, tasks=len(indices))
        with self.telemetry.span(self.kind, parent=self.parent_span, **attrs) as span:
            results = _attempt(
                self.kind, self.task, self.faults, indices, attempt, cancel
            )
            span.set(ok=sum(1 for result in results if result[0]))
        if self.metrics is not None:
            seconds = self._clock() - started
            self.metrics.histogram("task_seconds", kind=self.kind).observe(seconds)
        return results

    # -- the mechanics -----------------------------------------------------------

    def submit(self, indices: Sequence[int]) -> None:
        """Enter tasks ``indices`` into the pool as one batch attempt (attempt 1)."""
        indices = tuple(indices)
        for index in indices:
            self._attempts[index] = 1
        self._launch(indices, self._clock())

    def _launch(self, indices: tuple[int, ...], now: float) -> None:
        """Submit one attempt of ``indices`` (first attempts come in the
        client's batches, follow-ups alone); a task whose submission try
        fails waits out its backoff and is launched again alone."""
        attempt = self._attempts[indices[0]]
        if self.faults is not None:
            indices = tuple(i for i in indices if not self._submit_failed(i, now))
            if not indices:
                return
        if self.processes:
            cancel = None
            future = self._executor.submit(_process_attempt, indices, attempt)
        else:
            cancel = threading.Event()
            future = self._executor.submit(
                self._thread_attempt, indices, attempt, cancel
            )
        self._inflight.append(_Launched(indices, attempt, future, cancel))

    def _submit_failed(self, index: int, now: float) -> bool:
        """Draw one submission try of ``index``; on failure queue the next."""
        tries = self._submit_tries[index] = self._submit_tries.get(index, 0) + 1
        if not self.faults.submit_fails(index, tries, kind=self.kind):
            return False
        self.faults.fire(FaultKind.SUBMIT_FAILURE, index, tries, kind=self.kind)
        delay = None
        if tries < self.MAX_SUBMIT_TRIES:
            delay = self.poll_interval
            if self.retry is not None:
                delay = self.retry.backoff_seconds(index, min(tries, 8))
        self._queue(index, now, delay)
        error = "submit failure" if delay is not None else "submit failures exhausted"
        fields = dict(error=error, submit_try=tries, retry_delay=delay)
        attempt = self._attempts[index]
        self._outcomes.append(TaskOutcome(index, attempt, False, **fields))
        return True

    def _failed(
        self, index: int, attempt: int, now: float, error: str, **fields
    ) -> TaskOutcome:
        """Queue the follow-up attempt, or resolve the task as lost."""
        delay = None
        retry = self.retry
        if self._accepting and retry is not None and retry.retries_left(attempt):
            self._attempts[index] = attempt + 1
            delay = retry.backoff_seconds(index, attempt)
            self.n_retried += 1
            if self.metrics is not None:
                self.metrics.counter("task_retries", kind=self.kind).inc()
        self._queue(index, now, delay)
        fields.update(error=error, retry_delay=delay)
        return TaskOutcome(index, attempt, False, **fields)

    def _queue(self, index: int, now: float, delay: float | None) -> None:
        """Launch ``index`` again, alone, ``delay`` s from ``now``; None: it is lost."""
        if delay is None:
            self._resolved.add(index)
            self._lost.add(index)
        else:
            heapq.heappush(self._retry_heap, (now + delay, index))

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
        over the in-flight attempts: each task of a finished one is judged
        on its own (a failed one is retried alone or lost); each task of a
        running one past its straggler deadline is timed out and replaced.
        An attempt's deadline is ``timeout_seconds`` times its task count,
        counted from the first poll that saw it running, so time queued
        behind busy workers is not held against it.
        """
        while self._accepting and self._retry_heap and self._retry_heap[0][0] <= now:
            _, index = heapq.heappop(self._retry_heap)
            if index not in self._resolved:
                self._launch((index,), now)
        timeout = self.retry.timeout_seconds if self.retry is not None else None
        running = []
        for launched in self._inflight:
            if launched.future.done():
                self._judge(launched, now)
                continue
            running.append(launched)
            cancel = launched.cancel
            if timeout is None or cancel is None or cancel.is_set():
                continue  # no deadline, a process attempt, or already judged
            if launched.started is None:
                if launched.future.running():
                    launched.started = now
                continue
            elapsed = now - launched.started
            if elapsed <= timeout * len(launched.indices):
                continue
            cancel.set()  # frees the pool slot mid-stall
            self.n_timed_out += len(launched.indices)
            if self.metrics is not None:
                timeouts = self.metrics.counter("task_timeouts", kind=self.kind)
                timeouts.inc(len(launched.indices))
            fields = dict(error="straggler timeout", timed_out=True, elapsed=elapsed)
            for i in launched.indices:  # each task times out and is requeued
                self._abandoned.add((i, launched.attempt))
                self._outcomes.append(self._failed(i, launched.attempt, now, **fields))
        self._inflight = running
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def _judge(self, launched: _Launched, now: float) -> None:
        """Turn a finished attempt into one outcome per task not yet judged."""
        if launched.future.cancelled():
            return
        try:
            results = launched.future.result()
        except Exception as exc:  # worker infrastructure died
            results = [(False, None, f"worker error: {exc!r}")] * len(launched.indices)
        attempt = launched.attempt
        for index, (ok, value, error) in zip(launched.indices, results):
            if (index, attempt) in self._abandoned:
                continue
            if ok:
                self._resolved.add(index)
                self._outcomes.append(TaskOutcome(index, attempt, True, value))
            else:
                self._outcomes.append(
                    self._failed(index, attempt, now, error or "failure")
                )

    def wait(self) -> None:
        """Block until an attempt finishes, a retry falls due, or at most
        :attr:`poll_interval` (so running attempts are stamped and checked
        against their straggler deadline that often)."""
        timeout = self.poll_interval
        if self._retry_heap:
            timeout = min(timeout, max(self._retry_heap[0][0] - self._clock(), 0.0))
        futures = [launched.future for launched in self._inflight]
        if futures:
            wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
        elif timeout > 0:
            time.sleep(timeout)  # only backoffs pending: nothing to wake on

    def cancel_pending(self) -> list[int]:
        """Stop launching: the rest of the bag is superfluous.

        Drops queued retries, cancels attempts that have not started
        (the task indices they carried are returned) and releases
        in-flight injected stalls -- draws are pure, so the pool can tell
        which running attempts are stalls without asking the worker.
        Running attempts finish; from here on a failure is final.
        """
        self._accepting = False
        self._retry_heap.clear()
        cancelled, running = [], []
        for launched in self._inflight:
            if launched.future.cancel():
                cancelled.extend(launched.indices)
                continue
            running.append(launched)
            keys = [(index, launched.attempt) for index in launched.indices]
            if (
                launched.cancel is not None
                and self.faults is not None
                and not launched.future.done()
                and FaultKind.STALL
                in [self.faults.draw(i, a, kind=self.kind) for i, a in keys]
            ):
                self._abandoned.update(keys)
                launched.cancel.set()
        self._inflight = running
        return cancelled

    def run(self, indices: Iterable[int]) -> Iterator[TaskOutcome]:
        """Submit every index as a batch of one, then poll until each is resolved.

        Yields every outcome as it is observed, retries and timeouts
        included; a task's last outcome is ``ok`` or ``lost``.
        """
        with self:
            for index in indices:
                self.submit((index,))
            while True:
                yield from self.poll(self._clock())
                if self.all_resolved:
                    return
                self.wait()


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
    retry, faults, telemetry, metrics:
        The :class:`TaskPool`'s; an injected CORRUPT replaces the tile's
        result with a payload that fails validation.

    A result that fails :meth:`_default_validate` (None or a corrupted
    payload) counts as a failed attempt.

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
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.retry = retry
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.metrics = metrics

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

        def attempt(indices, attempt_no, corrupt, cancel):
            (index,), (torn,) = indices, corrupt  # tiles run one per attempt
            value = tasks[index]()
            if torn:
                value = _CORRUPT  # the work was done; its output is torn
            if self._default_validate(value):
                return [(True, value, None)]
            return [(False, None, "invalid result")]

        with self.telemetry.span("tilepool.run", tasks=len(tasks)) as root:
            pool = TaskPool(
                "tile",
                attempt,
                self.n_workers,
                retry=self.retry,
                faults=self.faults,
                telemetry=self.telemetry,
                metrics=self.metrics,
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
