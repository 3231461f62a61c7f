"""Nestable, thread-safe tracing spans with an injectable clock.

A *span* is a named time interval with attributes -- one ``pemodel``
member attempt, one SVD computation, one assimilation cycle.  Spans nest:
each thread keeps its own stack of open spans, and a new span becomes a
child of the innermost open one (or of an explicitly passed parent, which
is how spans started in worker threads attach to the run's root span).

Two recorders implement the same interface:

- :class:`NullRecorder` (the default everywhere) does nothing.  Its
  :meth:`~NullRecorder.span` returns a shared singleton context manager,
  so an un-instrumented hot path pays one attribute lookup and one call
  -- no allocation when called without attributes.
- :class:`TraceRecorder` records :class:`Span` records against an
  injectable monotonic clock -- the live process clock by default, or a
  :class:`~repro.telemetry.clock.FakeClock` in tests.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from repro.telemetry.clock import MONOTONIC


@dataclass(frozen=True)
class Span:
    """One completed, immutable trace interval.

    Times are seconds on the recorder's clock (live monotonic seconds or
    a fake clock's -- the exporters do not care which).
    """

    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None = None
    thread: str = "main"
    attrs: tuple[tuple[str, object], ...] = ()
    status: str = "ok"

    @property
    def duration(self) -> float:
        """Span length in (clock) seconds."""
        return self.end - self.start

    def attr(self, key: str, default=None):
        """Look up one attribute value by key."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class TelemetryEvent:
    """One instantaneous, attributed occurrence on a telemetry clock."""

    time: float
    kind: str
    attrs: tuple[tuple[str, object], ...] = ()


class _NullSpan:
    """The do-nothing span handle (a process-wide singleton)."""

    __slots__ = ()

    def __enter__(self):
        """No-op; returns itself so ``with ... as s`` still binds."""
        return self

    def __exit__(self, exc_type, exc, tb):
        """No-op; never swallows exceptions."""
        return False

    def set(self, **attrs) -> None:
        """Discard attribute updates."""

    @property
    def span_id(self) -> None:
        """No identity: null spans cannot be parents."""
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default recorder: records nothing.

    Carries the monotonic ``clock`` so instrumented code can route *all*
    its time arithmetic through ``recorder.clock`` whether or not tracing
    is on (the workflow's retry backoff and deadline checks do exactly
    that).
    """

    enabled = False
    clock = staticmethod(MONOTONIC)

    def span(self, name: str, parent=None, **attrs) -> _NullSpan:
        """Return the shared no-op span handle."""
        return _NULL_SPAN

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent=None,
        **attrs,
    ) -> None:
        """Discard a pre-timed span."""

    def event(self, kind: str, **attrs) -> None:
        """Discard an instantaneous event."""


#: Shared default recorder -- safe because it keeps no state.
NULL_RECORDER = NullRecorder()


class _ActiveSpan:
    """An open span: a context manager that records itself on exit."""

    __slots__ = ("_recorder", "name", "span_id", "parent_id", "start", "_attrs",
                 "_thread", "status")

    def __init__(self, recorder, name, span_id, parent_id, start, attrs, thread):
        self._recorder = recorder
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self._attrs = attrs
        self._thread = thread
        self.status = "ok"

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self):
        """Push onto the owning thread's span stack."""
        self._recorder._push(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        """Pop and record; an exception marks the span ``status="error"``."""
        if exc_type is not None:
            self.status = "error"
            self._attrs.setdefault("error", exc_type.__name__)
        self._recorder._pop(self)
        return False


class TraceRecorder:
    """Thread-safe span/event recorder against an injectable clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds; pass a
        :class:`~repro.telemetry.clock.FakeClock` in tests.

    Examples
    --------
    >>> from repro.telemetry.clock import FakeClock
    >>> clk = FakeClock()
    >>> rec = TraceRecorder(clock=clk)
    >>> with rec.span("pemodel", index=3):
    ...     clk.advance(1.5)
    >>> rec.spans()[0].duration
    1.5
    """

    enabled = True

    def __init__(self, clock=MONOTONIC):
        self.clock = clock
        self._spans: list[Span] = []
        self._events: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, parent=None, **attrs) -> _ActiveSpan:
        """Open a span; use as a context manager.

        ``parent`` overrides the implicit thread-local parent: pass the
        handle (or ``span_id``) of a span opened in another thread to
        stitch worker-thread spans under the run's root.
        """
        if parent is None:
            stack = getattr(self._local, "stack", None)
            parent_id = stack[-1].span_id if stack else None
        else:
            parent_id = getattr(parent, "span_id", parent)
        return _ActiveSpan(
            self,
            name,
            next(self._ids),
            parent_id,
            self.clock(),
            dict(attrs),
            threading.current_thread().name,
        )

    def _push(self, active: _ActiveSpan) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(active)

    def _pop(self, active: _ActiveSpan) -> None:
        end = self.clock()
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is active:
            stack.pop()
        span = Span(
            name=active.name,
            start=active.start,
            end=end,
            span_id=active.span_id,
            parent_id=active.parent_id,
            thread=active._thread,
            attrs=tuple(sorted(active._attrs.items())),
            status=active.status,
        )
        with self._lock:
            self._spans.append(span)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent=None,
        **attrs,
    ) -> Span:
        """Record a span whose interval was timed externally.

        The completion path for work whose start and end are known only
        once it finishes (a product request's handling time, measured by
        the service around the whole request), so the whole interval is
        recorded at once.
        """
        if end < start:
            raise ValueError(f"span ends before it starts: {end} < {start}")
        span = Span(
            name=name,
            start=start,
            end=end,
            span_id=next(self._ids),
            parent_id=getattr(parent, "span_id", parent),
            thread=threading.current_thread().name,
            attrs=tuple(sorted(attrs.items())),
        )
        with self._lock:
            self._spans.append(span)
        return span

    # -- events ------------------------------------------------------------

    def event(self, kind: str, **attrs) -> None:
        """Record an instantaneous structured event at the current clock."""
        record = TelemetryEvent(
            time=self.clock(), kind=kind, attrs=tuple(sorted(attrs.items()))
        )
        with self._lock:
            self._events.append(record)

    # -- access ------------------------------------------------------------

    def spans(self) -> tuple[Span, ...]:
        """All recorded spans, ordered by start time."""
        with self._lock:
            return tuple(sorted(self._spans, key=lambda s: (s.start, s.span_id)))

    def events(self) -> tuple:
        """All recorded events, ordered by time."""
        with self._lock:
            return tuple(sorted(self._events, key=lambda e: e.time))

