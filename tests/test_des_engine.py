"""Tests for the discrete-event simulation kernel."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des.engine import FAULT_PRIORITY, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_priority_overrides_fifo_at_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late", priority=5)
        sim.schedule(1.0, order.append, "early", priority=-5)
        sim.run()
        assert order == ["early", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_finite_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(math.inf, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        times = []

        def chain(n):
            times.append(sim.now)
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert times == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []
        assert not event.pending

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        event.cancel()
        assert fired == ["x"]

    def test_pending_count_ignores_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count == 1
        del keep


class TestRunControl:
    def test_run_until_advances_clock_exactly(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_does_not_execute_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "in")
        sim.schedule(15.0, fired.append, "out")
        sim.run(until=10.0)
        assert fired == ["in"]
        assert sim.pending_count == 1

    def test_remaining_events_run_on_next_call(self):
        sim = Simulator()
        fired = []
        sim.schedule(15.0, fired.append, "late")
        sim.run(until=10.0)
        sim.run(until=20.0)
        assert fired == ["late"]

    def test_max_events_budget(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule(float(i), count.append, i)
        sim.run(max_events=4)
        assert len(count) == 4

    def test_budget_stop_keeps_clock_at_last_event(self):
        """A run stopped by its event budget has not reached ``until``:
        the clock stays at the last executed event, so the pending
        events can be scheduled around and still run in time order."""
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, fired.append, t)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 1.0
        assert sim.pending_count == 2
        sim.schedule_at(1.5, fired.append, 1.5)
        sim.run(until=10.0)
        assert fired == [1.0, 1.5, 2.0, 3.0]
        assert sim.now == 10.0

    def test_pause_strictly_before_an_instant(self):
        """Running until the float just below t leaves the events at t
        pending, so an intervention scheduled at t still preempts them,
        as it would have from t = 0."""
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, fired.append, "protocol")
        sim.run(until=math.nextafter(2.0, -math.inf))
        assert fired == [] and sim.now < 2.0
        sim.schedule_at(2.0, fired.append, "fault", priority=FAULT_PRIORITY)
        sim.run(until=5.0)
        assert fired == ["fault", "protocol"]

    def test_step_returns_false_when_drained(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(RuntimeError, match="reentrant"):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestDeterminism:
    @given(delays=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30))
    def test_execution_order_is_sorted_and_stable(self, delays):
        sim = Simulator()
        record = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, record.append, (delay, index))
        sim.run()
        assert record == sorted(record, key=lambda p: (p[0], p[1]))
