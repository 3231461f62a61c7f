"""Unit tests for the runtime concurrency sanitizer.

Threaded scenarios use barriers/joins to make the schedules
deterministic: the lockset algorithm reports on *locking discipline*,
not on winning an actual race, so a single forced interleaving decides
each verdict.

The fixtures here are deliberately racy/deadlocky -- that is what the
sanitizer under test must detect -- so the static lock rule is off for
this file:
# repro-lint: disable-file=REP003 -- deliberate bad-pattern fixtures
"""

import importlib.util
import threading

import pytest

from repro.telemetry.events import from_sanitizer_reports
from repro.util import sanitizer
from repro.util.sanitizer import (
    LockOrderReport,
    RaceReport,
    SanitizedLock,
    SanitizedRLock,
    is_active,
    new_lock,
    new_rlock,
    sanitized,
    track,
)


def run_in_thread(fn, name):
    t = threading.Thread(target=fn, name=name)
    t.start()
    t.join()


@pytest.fixture()
def inactive(monkeypatch):
    """The sanitizer switched off, whatever ``REPRO_SANITIZE`` says.

    Under ``REPRO_SANITIZE=1`` the module starts active and the suite-wide
    fixture wraps every test in ``sanitized()``; the tests about the
    *inactive* state establish it instead of assuming it.
    """
    monkeypatch.setattr(sanitizer, "_active", False)


class TestActivation:
    def test_inactive_by_default(self, monkeypatch):
        """Only ``REPRO_SANITIZE=1`` at import switches the module on."""
        for value, expected in (("1", True), ("0", False), ("", False)):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            spec = importlib.util.find_spec("repro.util.sanitizer")
            fresh = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(fresh)
            assert fresh.is_active() is expected

    def test_factories_return_raw_locks_when_inactive(self, inactive):
        assert type(new_lock()) is type(threading.Lock())
        assert type(new_rlock()) is type(threading.RLock())

    def test_factories_return_sanitized_locks_when_active(self):
        with sanitized():
            assert isinstance(new_lock(), SanitizedLock)
            assert isinstance(new_rlock(), SanitizedRLock)

    def test_track_is_a_noop_when_inactive(self, inactive):
        class Obj:
            pass

        obj = Obj()
        obj._items = []
        assert track(obj, "_items") is obj
        assert type(obj) is Obj

    def test_sanitized_restores_previous_state(self, inactive):
        with sanitized():
            assert is_active()
            with sanitized():
                assert is_active()
            assert is_active()
        assert not is_active()


class TestSanitizedLockBehaviour:
    def test_context_manager_and_locked(self):
        with sanitized():
            lock = new_lock("l")
            assert not lock.locked()
            with lock:
                assert lock.locked()
            assert not lock.locked()

    def test_rlock_reacquisition_is_fine(self):
        with sanitized() as monitor:
            lock = new_rlock("r")
            with lock:
                with lock:
                    pass
            assert monitor.reports == ()

    def test_self_deadlock_raises_instead_of_hanging(self):
        with sanitized():
            lock = new_lock("l")
            with lock:
                with pytest.raises(RuntimeError, match="self-deadlock"):
                    lock.acquire()

    def test_locks_usable_across_threads(self):
        with sanitized() as monitor:
            lock = new_lock("l")
            counter = {"n": 0}

            def work():
                for _ in range(100):
                    with lock:
                        counter["n"] += 1

            threads = [
                threading.Thread(target=work, name=f"w{i}") for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert counter["n"] == 400
            assert monitor.reports == ()


class TestLockOrderWitness:
    def test_opposite_orders_reported_once(self):
        with sanitized() as monitor:
            a = new_lock("A")
            b = new_lock("B")

            def ab():
                with a:
                    with b:
                        pass

            def ba():
                with b:
                    with a:
                        pass

            run_in_thread(ab, "t-ab")
            run_in_thread(ba, "t-ba")
            run_in_thread(ba, "t-ba2")  # repeat: still one report

            assert len(monitor.lock_orders) == 1
            (report,) = monitor.lock_orders
            assert isinstance(report, LockOrderReport)
            assert {report.first, report.second} == {"A", "B"}
            assert "inversion" in report.describe()
            monitor.clear()  # planted: keep the suite-wide sanitizer quiet

    def test_consistent_order_is_clean(self):
        with sanitized() as monitor:
            a = new_lock("A")
            b = new_lock("B")

            def ab():
                with a:
                    with b:
                        pass

            run_in_thread(ab, "t1")
            run_in_thread(ab, "t2")
            assert monitor.reports == ()

    def test_distinct_instances_with_same_name_do_not_collide(self):
        # Many Counter("x")._lock objects share a name; ordering is per
        # lock object, so cross-instance nesting is not an inversion.
        with sanitized() as monitor:
            locks = [new_lock("shared-name") for _ in range(3)]
            with locks[0]:
                with locks[1]:
                    pass
            with locks[1]:
                with locks[2]:
                    pass
            assert monitor.lock_orders == ()


class TestLocksetRaces:
    def make_pool(self):
        class Pool:
            def __init__(self):
                self._lock = new_lock("Pool._lock")
                self._sweeps = {}
                track(self, "_sweeps")

            def locked_bump(self, key):
                with self._lock:
                    self._sweeps[key] = self._sweeps.get(key, 0) + 1

            def unlocked_bump(self, key):
                self._sweeps[key] = self._sweeps.get(key, 0) + 1

        return Pool()

    def test_consistently_locked_access_is_clean(self):
        with sanitized() as monitor:
            pool = self.make_pool()
            run_in_thread(lambda: pool.locked_bump(1), "t1")
            run_in_thread(lambda: pool.locked_bump(2), "t2")
            assert monitor.races == ()

    def test_unlocked_shared_write_is_reported(self):
        with sanitized() as monitor:
            pool = self.make_pool()
            run_in_thread(lambda: pool.locked_bump(1), "t1")
            run_in_thread(lambda: pool.unlocked_bump(2), "t2")
            races = monitor.races
            assert len(races) == 1
            assert races[0].var == "Pool._sweeps"
            assert races[0].thread == "t2"
            assert "race" in races[0].describe()
            monitor.clear()
        assert monitor.reports == ()

    def test_single_thread_unlocked_is_clean(self):
        # Exclusive phase: one thread needs no locks.
        with sanitized() as monitor:
            pool = self.make_pool()
            for k in range(10):
                pool.unlocked_bump(k)
            assert monitor.races == ()

    def test_rebound_attribute_gets_fresh_epoch(self):
        # The drain idiom: swap the container under the lock, consume the
        # old one privately.  Must stay clean.
        class Drainer:
            def __init__(self):
                self._lock = new_lock("Drainer._lock")
                self._found = []
                track(self, "_found")

            def flag(self, x):
                with self._lock:
                    self._found.append(x)

            def drain(self):
                with self._lock:
                    found, self._found = self._found, []
                return [x * 2 for x in found]

        with sanitized() as monitor:
            d = Drainer()
            run_in_thread(lambda: d.flag(1), "worker")
            assert d.drain() == [2]
            run_in_thread(lambda: d.flag(2), "worker2")
            assert d.drain() == [4]
            assert monitor.races == ()

    def test_list_and_set_mutations_are_writes(self):
        class Obj:
            def __init__(self):
                self._lock = new_lock("Obj._lock")
                self._items = []
                self._seen = set()
                track(self, "_items", "_seen")

        with sanitized() as monitor:
            obj = Obj()
            with obj._lock:
                obj._items.append(1)
                obj._seen.add(1)
            run_in_thread(lambda: obj._items.append(2), "t2")
            run_in_thread(lambda: obj._seen.add(2), "t3")
            assert {r.var for r in monitor.races} == {
                "Obj._items",
                "Obj._seen",
            }
            monitor.clear()  # planted: keep the suite-wide sanitizer quiet

    def test_reads_are_never_reported(self):
        class Obj:
            def __init__(self):
                self._lock = new_lock("Obj._lock")
                self._items = [1, 2, 3]
                track(self, "_items")

        with sanitized() as monitor:
            obj = Obj()
            with obj._lock:
                assert len(obj._items) == 3
            # Unlocked cross-thread *read*: lockset empties, no report.
            run_in_thread(lambda: list(obj._items), "reader")
            assert monitor.reports == ()


class TestTelemetryConversion:
    def test_reports_convert_to_events(self):
        reports = [
            RaceReport(
                var="Pool._sweeps", thread="t2", first_thread="t1", held=()
            ),
            LockOrderReport(
                first="A", second="B", thread="t2", prior_thread="t1"
            ),
        ]
        events = from_sanitizer_reports(reports)
        assert [e.kind for e in events] == [
            "sanitizer_race",
            "sanitizer_lock_order",
        ]
        assert events[0].source == "sanitizer"
        assert events[0].attr("var") == "Pool._sweeps"
        assert events[1].attr("second") == "B"
        assert [e.time for e in events] == [0.0, 1.0]
