"""The suite's own in-memory span recorder and the proxies that feed it.

The traced pass wraps the *calls into* each layer (``truth_model.run``,
``driver.forecast``, ``store.publish``, ``service.handle`` ...) from the
benchmark's side of the boundary; nothing under ``src/repro`` is touched.
A span carries a name, the layer (= module name) it is charged to, start,
end, the span that caused it and one trace id per repetition.  Spans stay
in memory until the run ends.

Parent resolution uses a :mod:`contextvars` variable rather than a
thread-local stack: asyncio tasks interleave on one thread, so a stack
would make one client's request a child of another client's.  A span
opened where no parent is in context (a pool worker thread, the server's
executor thread) attaches to the innermost open *ambient* span: the
repetition's root, or a span such as ``workflow.parallel_run`` that was
opened as ambient because the call it covers fans work out to threads.

A layer's *self time* is each of its spans' duration minus the part of
that interval its child spans cover (children may overlap when they run
on different threads, so the covered part is an interval union).

A span opened with ``waiting=<layer>`` also reads its thread's CPU clock.
Only the CPU seconds count as self time of the span's own layer; the rest
of the span -- the thread was runnable but waiting for the interpreter
lock or a core -- is charged to the ``waiting`` layer.  That is how a
member run inside a pool thread is split between ``ocean`` (the stepping
it did) and ``workflow`` (the time the pool made it wait).  Such a span
must have no child spans on its own thread.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import threading
import time
from dataclasses import dataclass

from repro.telemetry.clock import MONOTONIC

#: Layer charged for time inside the body that no proxy covers.
UNATTRIBUTED = "suite"

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("suite_span", default=None)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    layer: str
    start: float
    end: float
    #: Thread CPU seconds inside the span and the layer charged for the
    #: rest of it; both None unless the span was opened with ``waiting``.
    cpu: float | None = None
    waiting: str | None = None

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    @property
    def waited(self) -> float:
        """Seconds of the span its thread spent off the CPU (0 if unmeasured)."""
        return 0.0 if self.cpu is None else max(self.duration - self.cpu, 0.0)


class _OpenSpan:
    """Context manager recording one span on exit (also on exceptions)."""

    __slots__ = (
        "_recorder", "_name", "_layer", "_parent", "_ambient", "_waiting", "_token",
        "_start", "_cpu_start", "span_id",
    )

    def __init__(self, recorder, name, layer, parent, ambient, waiting=None):
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._parent = parent
        self._ambient = ambient
        self._waiting = waiting
        self.span_id = next(recorder._ids)

    def __enter__(self):
        self._token = _CURRENT.set(self.span_id)
        if self._ambient:
            self._recorder._ambient.append(self.span_id)
        if self._waiting is not None:
            self._cpu_start = self._recorder.cpu_clock()
        self._start = self._recorder.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = self._recorder.clock()
        cpu = None
        if self._waiting is not None:
            cpu = self._recorder.cpu_clock() - self._cpu_start
        if self._ambient:
            self._recorder._ambient.pop()
        _CURRENT.reset(self._token)
        self._recorder._finish(
            SpanRecord(
                self.span_id,
                self._parent,
                self._recorder.trace_id,
                self._name,
                self._layer,
                self._start,
                end,
                cpu,
                self._waiting,
            )
        )
        return False


class _NullSpan:
    """The do-nothing span handle of :data:`NULL_TRACER`."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: hands every object back unwrapped, records nothing.

    The untraced run -- the one every end-to-end number comes from --
    therefore calls the program's objects directly, with no proxy frame
    in between.
    """

    enabled = False

    def span(self, name: str, layer: str, ambient: bool = False, waiting=None):
        """A no-op context manager."""
        return _NULL_SPAN

    def wrap(self, target, layer: str, methods, ambient: bool = False, waiting=None):
        """The target itself."""
        return target

    def wrap_fn(self, fn, layer: str, name: str):
        """The function itself."""
        return fn

    def mapper(self, layer: str, name: str):
        """None, i.e. the callee's default (builtin ``map``)."""
        return None


NULL_TRACER = NullTracer()


class _Proxy:
    """Delegates everything to ``target``; the named methods run in spans."""

    def __init__(self, target, recorder, layer, methods, ambient, waiting):
        self._target = target
        self._recorder = recorder
        self._layer = layer
        self._methods = dict(methods)
        self._ambient = ambient
        self._waiting = waiting

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        span_name = self._methods.get(attr)
        if span_name is None:
            return value
        recorder, layer = self._recorder, self._layer
        ambient, waiting = self._ambient, self._waiting

        def traced(*args, **kwargs):
            with recorder.span(span_name, layer, ambient, waiting):
                return value(*args, **kwargs)

        return traced


class SpanRecorder:
    """Records spans for one traced repetition at a time.

    Parameters
    ----------
    clock:
        Zero-argument monotonic clock (seconds).
    cpu_clock:
        Zero-argument clock of the calling thread's CPU time (seconds).
    """

    enabled = True

    def __init__(self, clock=MONOTONIC, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        # Ambient spans are opened and closed by the thread driving the
        # body, strictly nested, so a plain list is a correct stack.
        self._ambient: list[int] = []

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, layer: str, ambient: bool = False, waiting=None):
        """Open a span under the span in context, else the ambient one."""
        parent = _CURRENT.get()
        if parent is None and self._ambient:
            parent = self._ambient[-1]
        return _OpenSpan(self, name, layer, parent, ambient, waiting)

    def root(self, name: str):
        """Open one repetition's root span (new trace id, ambient)."""
        self.trace_id += 1
        return _OpenSpan(self, name, UNATTRIBUTED, None, True)

    def wrap(self, target, layer: str, methods, ambient: bool = False, waiting=None):
        """A proxy of ``target``; ``methods`` maps attribute -> span name."""
        return _Proxy(target, self, layer, methods, ambient, waiting)

    def wrap_fn(self, fn, layer: str, name: str):
        """``fn`` running inside a span (sync or coroutine function)."""
        if asyncio.iscoroutinefunction(fn):

            async def traced_async(*args, **kwargs):
                with self.span(name, layer):
                    return await fn(*args, **kwargs)

            return traced_async

        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def mapper(self, layer: str, name: str):
        """A ``map`` replacement giving each call its own span."""

        def traced_map(fn, iterable):
            out = []
            for item in iterable:
                with self.span(name, layer):
                    out.append(fn(item))
            return out

        return traced_map

    def spans(self) -> list[SpanRecord]:
        """Every finished span so far (all repetitions)."""
        with self._lock:
            return list(self._spans)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[SpanRecord]) -> dict[str, float]:
    """Seconds of self time per layer (see the module docstring)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        own = max(span.duration - _covered(clipped), 0.0)
        busy = own if span.cpu is None else min(own, span.cpu)
        totals[span.layer] = totals.get(span.layer, 0.0) + busy
        if own > busy:
            totals[span.waiting] = totals.get(span.waiting, 0.0) + own - busy
    return totals


def wait_times(spans: list[SpanRecord]) -> dict[str, float]:
    """Seconds spans spent off the CPU, per layer charged for the wait."""
    totals: dict[str, float] = {}
    for span in spans:
        if span.waiting is not None:
            totals[span.waiting] = totals.get(span.waiting, 0.0) + span.waited
    return totals


def span_durations(spans: list[SpanRecord], name: str) -> list[float]:
    """Durations of every span called ``name``."""
    return [s.duration for s in spans if s.name == name]


def write_spans(path, spans: list[SpanRecord]) -> None:
    """Write spans as JSON lines (one object per span)."""
    with open(path, "w") as handle:
        for s in spans:
            handle.write(
                json.dumps(
                    {
                        "id": s.span_id,
                        "parent": s.parent_id,
                        "trace": s.trace_id,
                        "name": s.name,
                        "layer": s.layer,
                        "start": s.start,
                        "end": s.end,
                        "cpu": s.cpu,
                        "waiting": s.waiting,
                    }
                )
                + "\n"
            )
