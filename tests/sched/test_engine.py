"""Unit tests for the discrete-event engine."""

import pytest

from repro.sched.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for k in range(5):
            sim.schedule(2.0, lambda k=k: fired.append(k))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [5.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            Simulator().schedule(-1.0, lambda: None)


class TestCancelAndUntil:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancelled_events_are_not_counted(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(sim.schedule(3.0, lambda: None))
        sim.run()
        assert sim.events_processed == 2
        assert sim.now == 2.0  # a cancelled event does not move the clock

    def test_cancelling_one_of_tied_events_keeps_the_other(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.cancel(first)
        sim.run()
        assert fired == ["second"]

