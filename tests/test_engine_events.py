"""Unit tests for the discrete-event kernel."""

import pytest

from repro.engine.errors import SimulationError
from repro.engine.events import EventQueue
from repro.engine.simulator import Simulator


class TestEventQueue:
    def test_empty_queue_has_no_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert len(q) == 0

    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.pop()

    def test_events_pop_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(30, lambda: fired.append(30))
        q.schedule(10, lambda: fired.append(10))
        q.schedule(20, lambda: fired.append(20))
        while len(q):
            q.pop()()
        assert fired == [10, 20, 30]

    def test_same_cycle_events_fire_in_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(5, lambda i=i: fired.append(i))
        while len(q):
            q.pop()()
        assert fired == list(range(10))

    def test_peek_time_returns_earliest(self):
        q = EventQueue()
        q.schedule(7, lambda: None)
        q.schedule(3, lambda: None)
        assert q.peek_time() == 3


class TestSimulator:
    def test_run_advances_clock_to_last_event(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(25, lambda: None)
        assert sim.run() == 25
        assert sim.now == 25

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(3, lambda: None)

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1, lambda: chain(n + 1))

        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(50, lambda: fired.append(50))
        sim.run(until=20)
        assert fired == [10]
        assert sim.now == 20
        sim.run()
        assert fired == [10, 50]

    def test_max_events_guards_against_livelock(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_budget_is_exact(self):
        """Regression (off-by-one): exactly ``max_events`` callbacks may
        run; the budget is checked *before* executing the next event."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]  # the 4th callback never executed
        assert sim.events_executed == 3

    def test_max_events_equal_to_workload_passes(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run(max_events=5)  # budget exactly met: no error
        assert sim.events_executed == 5

    def test_same_cycle_batch_preserves_order_and_until(self):
        """The same-cycle drain fast path must not reorder events or
        overrun an ``until`` bound."""
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.schedule(10, lambda i=i: fired.append(("a", i)))
        sim.schedule(20, lambda: fired.append(("b", 0)))
        sim.run(until=15)
        assert fired == [("a", 0), ("a", 1), ("a", 2), ("a", 3)]
        assert sim.now == 15
        sim.run()
        assert fired[-1] == ("b", 0)

    def test_raising_callback_keeps_count_exact(self):
        """A callback that raises was not executed: it and the rest of its
        cohort stay queued, and the events before it are counted."""
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1, lambda: fired.append("first"))
        sim.schedule(1, boom)
        sim.schedule(1, lambda: fired.append("tail"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["first"]
        assert sim.events_executed == 1
        assert sim.pending_events == 2

    def test_stop_requests_early_return(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 7
