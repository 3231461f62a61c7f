"""Runtime concurrency sanitizer: lockset races and lock-order inversions.

The many-task pipeline (``repro.workflow.parallel``) is threads sharing
mutable state behind ad-hoc locks; the static lock rule (REP003 in
``tools/lint``) catches the unlocked mutation that is visible lexically,
but a race that only exists on one interleaving, or two locks taken in
opposite orders, needs a *dynamic* check.  This module provides two, both
in the spirit of Savage et al.'s Eraser:

- a **lockset race detector**: every shared variable registered with
  :func:`track` keeps the set of locks that protected *all* of its
  accesses so far; a write performed while that set is empty -- no single
  lock consistently guards the variable -- is reported as a data race
  without needing the racy interleaving to actually occur;
- a **lock-order witness**: every :class:`SanitizedLock` acquisition
  records "held -> acquired" edges; acquiring two locks in opposite
  orders on any two code paths (the classic deadlock recipe) is reported
  the moment the second ordering is seen, and re-acquiring a held
  non-reentrant lock (a guaranteed self-deadlock) raises immediately
  instead of hanging the test run.

Activation and overhead
-----------------------
The sanitizer is **off by default** and costs one module-global boolean
check per lock operation when off.  It activates when the process starts
with ``REPRO_SANITIZE=1`` in the environment, or inside a
:func:`sanitized` context manager (which is how the test-suite fixture
in ``tests/conftest.py`` wraps every test).  The factories
:func:`new_lock` / :func:`new_rlock` return plain :mod:`threading` locks
when the sanitizer is inactive at construction time, so production runs
carry zero instrumentation; :func:`track` is likewise a no-op when
inactive.

Reports are plain dataclasses (:class:`RaceReport`,
:class:`LockOrderReport`).  They convert into the unified telemetry
event schema via :func:`repro.telemetry.events.from_sanitizer_reports`
-- the conversion lives in :mod:`repro.telemetry` because ``util`` is a
leaf package and must not import upward (REP005).

Scope and honesty
-----------------
Lockset analysis over-approximates: state handed between threads by a
happens-before edge the detector cannot see (``Thread.start``/``join``,
a drained container consumed privately after a locked swap) would be a
false positive if reads were reported.  The implementation therefore
refines locksets on reads but *reports only at writes* -- exactly the
"unlocked mutation" class that PR 3's REP003 caught statically -- and
state that is rebound (``self._x = []``) gets a fresh lockset, so the
swap-under-lock/drain-privately idiom stays clean.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "LockOrderReport",
    "RaceReport",
    "SanitizedLock",
    "SanitizedRLock",
    "all_reports",
    "clear_reports",
    "is_active",
    "new_lock",
    "new_rlock",
    "sanitized",
    "track",
]


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class RaceReport:
    """A write to tracked shared state with an empty candidate lockset."""

    var: str  # tracked-variable label, e.g. "ParallelESSEWorkflow._events"
    thread: str  # thread performing the unprotected write
    first_thread: str  # thread that first touched the variable
    held: tuple[str, ...]  # locks held at the racy write (may be non-empty)
    kind: str = "race"

    def describe(self) -> str:
        """Human-readable one-line report."""
        held = ", ".join(self.held) or "no locks"
        return (
            f"race: write to {self.var} in thread {self.thread!r} holding "
            f"{held}, but no single lock protects every access "
            f"(first touched by {self.first_thread!r})"
        )

    def to_attrs(self) -> dict:
        """Plain-data attributes for the telemetry event schema."""
        return {
            "var": self.var,
            "thread": self.thread,
            "first_thread": self.first_thread,
            "held": ",".join(self.held),
        }


@dataclass(frozen=True)
class LockOrderReport:
    """Two locks acquired in opposite orders on different code paths."""

    first: str  # lock held while acquiring `second` this time
    second: str
    thread: str  # thread that exhibited this ordering
    prior_thread: str  # thread that witnessed the opposite ordering
    kind: str = "lock_order"

    def describe(self) -> str:
        """Human-readable one-line report."""
        return (
            f"lock-order inversion: thread {self.thread!r} acquired "
            f"{self.second} while holding {self.first}, but thread "
            f"{self.prior_thread!r} previously acquired them in the "
            "opposite order (potential deadlock)"
        )

    def to_attrs(self) -> dict:
        """Plain-data attributes for the telemetry event schema."""
        return {
            "first": self.first,
            "second": self.second,
            "thread": self.thread,
            "prior_thread": self.prior_thread,
        }


# -- module state -------------------------------------------------------------

#: Fast-path activation flag; written only under _STATE_LOCK, read unlocked
#: (a torn read of a bool is impossible in CPython).
_active: bool = os.environ.get("REPRO_SANITIZE", "") == "1"

#: Guards every monitor structure below.  A plain threading.Lock on
#: purpose: the monitor must not recurse into itself.
_STATE_LOCK = threading.Lock()

#: All reports in discovery order (races and inversions interleaved).
_reports: list = []

#: Lock-order edges actually witnessed: (id(a), id(b)) -> (name_a,
#: name_b, thread).  Keyed by lock *identity*, not name, so two
#: same-named locks on different instances never fake an inversion.
_order_edges: dict = {}

#: (id(a), id(b)) pairs already reported, to report each pair once.
_order_reported: set = set()

#: Per-thread stack of currently held (lock, count) entries.
_tls = threading.local()


def is_active() -> bool:
    """Whether the sanitizer is currently recording."""
    return _active


def _held_entries() -> list:
    """The calling thread's held-lock stack (created on first use)."""
    entries = getattr(_tls, "held", None)
    if entries is None:
        entries = _tls.held = []
    return entries


def _held_names() -> frozenset:
    """Names of the locks the calling thread holds right now."""
    return frozenset(lock.name for lock, _ in _held_entries())


def _clear_locked() -> None:
    """Reset every monitor structure; caller holds _STATE_LOCK."""
    _reports.clear()
    _order_edges.clear()
    _order_reported.clear()


def all_reports() -> tuple:
    """Every race/inversion report since the last clear, in order."""
    with _STATE_LOCK:
        return tuple(_reports)


def clear_reports() -> None:
    """Drop accumulated reports and the lock-order edge memory.

    Tests that *deliberately* provoke a race (the detection-power
    fixtures) call this before returning so the suite-level sanitizer
    fixture does not fail the test for the planted report.
    """
    with _STATE_LOCK:
        _clear_locked()


class SanitizerMonitor:
    """Handle yielded by :func:`sanitized`: a view over the reports."""

    @property
    def reports(self) -> tuple:
        """All reports recorded since the context was entered."""
        return all_reports()

    @property
    def races(self) -> tuple:
        """Only the :class:`RaceReport` entries."""
        return tuple(r for r in all_reports() if r.kind == "race")

    @property
    def lock_orders(self) -> tuple:
        """Only the :class:`LockOrderReport` entries."""
        return tuple(r for r in all_reports() if r.kind == "lock_order")

    def clear(self) -> None:
        """Forget reports recorded so far (see :func:`clear_reports`)."""
        clear_reports()


@contextmanager
def sanitized():
    """Activate the sanitizer for the duration of a ``with`` block.

    Clears all monitor state on entry (so each test scopes its own
    reports) and yields a :class:`SanitizerMonitor`.  The activation flag
    is restored on exit, but reports stay readable through the monitor
    until the next activation clears them.

    Locks and tracked state must be *created* while the sanitizer is
    active to be instrumented -- enter the context before constructing
    the objects under test.
    """
    global _active
    with _STATE_LOCK:
        _clear_locked()
    previous = _active
    _active = True
    try:
        yield SanitizerMonitor()
    finally:
        _active = previous


# -- sanitized locks ----------------------------------------------------------


class SanitizedLock:
    """Drop-in for :class:`threading.Lock` that feeds the monitor.

    On every acquisition (while active) it records "held -> acquired"
    ordering edges, reports an inversion if the opposite edge was ever
    witnessed, and raises :class:`RuntimeError` on a same-thread
    re-acquisition -- which for a non-reentrant lock is a guaranteed
    deadlock, better surfaced as an exception than as a hung test run.
    """

    _reentrant = False

    def __init__(self, name: str | None = None):
        self._inner = self._make_inner()
        self.name = name if name is not None else f"{type(self).__name__}@{id(self):#x}"

    @staticmethod
    def _make_inner():
        """The wrapped primitive (overridden by the RLock variant)."""
        return threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the lock, recording order edges while active."""
        if not _active:
            return self._inner.acquire(blocking, timeout)
        self._before_acquire()
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._note_acquired()
        return ok

    def release(self) -> None:
        """Release the lock, unwinding the held-lock stack while active."""
        if _active:
            self._note_released()
        self._inner.release()

    def locked(self) -> bool:
        """Whether the underlying lock is currently held by anyone."""
        return self._inner.locked()

    def __enter__(self) -> "SanitizedLock":
        """Context-manager acquire."""
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Context-manager release; never swallows exceptions."""
        self.release()
        return False

    # -- monitor plumbing --------------------------------------------------

    def _held_count(self) -> int:
        """How many times the calling thread currently holds this lock."""
        for lock, count in _held_entries():
            if lock is self:
                return count
        return 0

    def _before_acquire(self) -> None:
        """Order-witness bookkeeping; runs *before* blocking."""
        if self._held_count():
            if not self._reentrant:
                raise RuntimeError(
                    f"sanitizer: thread {threading.current_thread().name!r} "
                    f"re-acquired non-reentrant lock {self.name} it already "
                    "holds -- guaranteed self-deadlock"
                )
            return  # reentrant re-acquisition adds no ordering information
        thread = threading.current_thread().name
        with _STATE_LOCK:
            for held, _ in _held_entries():
                if held is self:
                    continue
                key = (id(held), id(self))
                _order_edges.setdefault(key, (held.name, self.name, thread))
                reverse = (id(self), id(held))
                witness = _order_edges.get(reverse)
                pair = (min(key), max(key))
                if witness is not None and pair not in _order_reported:
                    _order_reported.add(pair)
                    _reports.append(
                        LockOrderReport(
                            first=held.name,
                            second=self.name,
                            thread=thread,
                            prior_thread=witness[2],
                        )
                    )

    def _note_acquired(self) -> None:
        entries = _held_entries()
        for i, (lock, count) in enumerate(entries):
            if lock is self:
                entries[i] = (lock, count + 1)
                return
        entries.append((self, 1))

    def _note_released(self) -> None:
        entries = _held_entries()
        for i, (lock, count) in enumerate(entries):
            if lock is self:
                if count > 1:
                    entries[i] = (lock, count - 1)
                else:
                    del entries[i]
                return


class SanitizedRLock(SanitizedLock):
    """Drop-in for :class:`threading.RLock` with the same monitoring."""

    _reentrant = True

    @staticmethod
    def _make_inner():
        """The wrapped reentrant primitive."""
        return threading.RLock()

    def locked(self) -> bool:
        """RLocks predate ``locked()``; approximate via try-acquire."""
        if self._inner.acquire(blocking=False):
            self._inner.release()
            return False
        return True


def new_lock(name: str | None = None):
    """A mutex: :class:`SanitizedLock` when active, else ``threading.Lock``.

    The decision is made at construction time, so objects built outside a
    :func:`sanitized` context (and without ``REPRO_SANITIZE=1``) carry a
    raw lock and pay zero sanitizer overhead forever.
    """
    return SanitizedLock(name) if _active else threading.Lock()


def new_rlock(name: str | None = None):
    """Reentrant variant of :func:`new_lock`."""
    return SanitizedRLock(name) if _active else threading.RLock()


# -- lockset race detection ---------------------------------------------------

# Eraser state machine per tracked variable:
#   EXCLUSIVE        only one thread has touched it (no check)
#   SHARED           multiple threads, reads only since sharing began
#   SHARED_MODIFIED  multiple threads and at least one write
# The candidate lockset starts as the locks held at the first *shared*
# access and is intersected on every subsequent access; an empty set at a
# write means no single lock protects the variable.
_EXCLUSIVE = 0
_SHARED = 1
_SHARED_MODIFIED = 2


class _Var:
    """Monitor state of one tracked variable (or tracked container)."""

    __slots__ = ("label", "phase", "owner", "lockset", "reported")

    def __init__(self, label: str, owner: str):
        self.label = label
        self.phase = _EXCLUSIVE
        self.owner = owner  # first-toucher thread name
        self.lockset: frozenset = frozenset()
        self.reported = False


def _note_access(var: _Var, write: bool) -> None:
    """Feed one access into the lockset state machine."""
    thread = threading.current_thread().name
    held = _held_names()
    with _STATE_LOCK:
        if var.phase == _EXCLUSIVE:
            if thread == var.owner:
                return
            var.lockset = held
            var.phase = _SHARED_MODIFIED if write else _SHARED
        else:
            var.lockset &= held
            if write:
                var.phase = _SHARED_MODIFIED
        if (
            write
            and var.phase == _SHARED_MODIFIED
            and not var.lockset
            and not var.reported
        ):
            var.reported = True
            _reports.append(
                RaceReport(
                    var=var.label,
                    thread=thread,
                    first_thread=var.owner,
                    held=tuple(sorted(held)),
                )
            )


class _TrackedAttr:
    """Data descriptor routing one attribute's accesses to the monitor.

    The value itself lives in the instance ``__dict__`` under its normal
    name; the per-instance :class:`_Var` sits beside it under a mangled
    key.  Being a *data* descriptor, it takes precedence over the
    instance dictionary for both reads and writes.
    """

    def __init__(self, name: str):
        self.name = name
        self.varslot = "_repro_sanitizer_var__" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        d = obj.__dict__
        if _active:
            var = d.get(self.varslot)
            if var is not None:
                _note_access(var, write=False)
        try:
            return d[self.name]
        except KeyError:
            raise AttributeError(self.name) from None

    def __set__(self, obj, value) -> None:
        d = obj.__dict__
        if _active:
            var = d.get(self.varslot)
            if var is not None:
                _note_access(var, write=True)
                # Rebinding starts a fresh container epoch: the old value
                # may legitimately be consumed privately (drain pattern).
                value = _wrap_value(value, var.label)
        d[self.name] = value

    def __delete__(self, obj) -> None:
        obj.__dict__.pop(self.name, None)


# -- instrumented containers --------------------------------------------------
#
# Attribute-level tracking alone cannot see `self._d[k] = v`: that is a
# *read* of the attribute followed by a mutation of the container.  The
# wrapper subclasses below give dict/list/set values their own _Var so
# in-place mutations count as writes at the right granularity.

_DICT_WRITERS = (
    "__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem",
    "setdefault", "update",
)
_LIST_WRITERS = (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "clear",
    "extend", "insert", "pop", "remove", "reverse", "sort",
)
_SET_WRITERS = (
    "__iand__", "__ior__", "__isub__", "__ixor__", "add", "clear", "discard",
    "difference_update", "intersection_update", "pop", "remove",
    "symmetric_difference_update", "update",
)
_READERS = (
    "__contains__", "__getitem__", "__iter__", "__len__", "__eq__", "copy",
    "count", "get", "index", "items", "keys", "values",
)


def _accessor(base: type, method: str, write: bool):
    """Build one monitored method forwarding to the base container."""
    target = getattr(base, method)

    def wrapped(self, *args, **kwargs):
        if _active:
            _note_access(self._repro_var, write=write)
        return target(self, *args, **kwargs)

    wrapped.__name__ = method
    return wrapped


def _tracked_container(base: type, writers: tuple) -> type:
    """A ``base`` subclass whose mutators/readers feed the monitor."""
    namespace: dict = {"__slots__": ("_repro_var",)}
    for method in writers:
        if hasattr(base, method):
            namespace[method] = _accessor(base, method, write=True)
    for method in _READERS:
        if hasattr(base, method):
            namespace[method] = _accessor(base, method, write=False)
    return type(f"_Tracked{base.__name__.capitalize()}", (base,), namespace)


_TrackedDict = _tracked_container(dict, _DICT_WRITERS)
_TrackedList = _tracked_container(list, _LIST_WRITERS)
_TrackedSet = _tracked_container(set, _SET_WRITERS)

_CONTAINER_TYPES = {dict: _TrackedDict, list: _TrackedList, set: _TrackedSet}


def _wrap_value(value, label: str):
    """Wrap a plain dict/list/set in its monitored twin (else pass through)."""
    wrapper = _CONTAINER_TYPES.get(type(value))
    if wrapper is None:
        return value
    wrapped = wrapper(value)
    wrapped._repro_var = _Var(label, threading.current_thread().name)
    return wrapped


# -- track() ------------------------------------------------------------------

#: Cache of instrumented subclasses keyed by (base class, tracked attrs).
_class_cache: dict = {}


def _tracked_class(base: type, attrs: frozenset) -> type:
    key = (base, attrs)
    cls = _class_cache.get(key)
    if cls is None:
        namespace = {name: _TrackedAttr(name) for name in sorted(attrs)}
        namespace["_repro_sanitizer_base"] = base
        namespace["_repro_sanitizer_attrs"] = attrs
        cls = type(base.__name__, (base,), namespace)
        _class_cache[key] = cls
    return cls


def track(obj, *attrs: str):
    """Register instance attributes as sanitizer-monitored shared state.

    A no-op (returning ``obj`` unchanged) when the sanitizer is inactive.
    When active, the object's class is swapped for a cached instrumented
    subclass whose data descriptors observe reads/writes of the named
    attributes, and any current dict/list/set values are wrapped so
    in-place mutations (``self._d[k] = v``, ``self._l.append(x)``) count
    as writes.  Call from ``__init__`` *after* assigning the attributes:

    >>> class Pool:
    ...     def __init__(self):
    ...         self._lock = new_lock("Pool._lock")
    ...         self._items = []
    ...         track(self, "_items")

    Only track state that is genuinely lock-guarded.  State handed
    between threads by ``Thread.start``/``join`` ordering alone (the
    detector cannot see happens-before edges) belongs outside
    :func:`track`.
    """
    if not _active:
        return obj
    cls = type(obj)
    base = getattr(cls, "_repro_sanitizer_base", cls)
    tracked = frozenset(getattr(cls, "_repro_sanitizer_attrs", frozenset()) | set(attrs))
    try:
        obj.__class__ = _tracked_class(base, tracked)
    except TypeError as exc:  # __slots__, extension types...
        raise TypeError(
            f"sanitizer.track() cannot instrument {base.__name__}: {exc}"
        ) from exc
    owner = threading.current_thread().name
    for name in attrs:
        varslot = "_repro_sanitizer_var__" + name
        if varslot in obj.__dict__:
            continue  # already tracked; keep its history
        label = f"{base.__name__}.{name}"
        obj.__dict__[varslot] = _Var(label, owner)
        if name in obj.__dict__:
            obj.__dict__[name] = _wrap_value(obj.__dict__[name], label)
    return obj
