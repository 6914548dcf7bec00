"""Unit tests for the cohort (batched) event kernel.

The contract under test is the one :mod:`repro.engine.batch` documents:
the cohort queue and the simulator's drain keep the ``(time, seq)`` total
order of a plain heap *exactly* — same callback execution order, same
clock values, same ``until``/``max_events``/``stop`` semantics —
including the awkward corners (spill-heap crossover, events scheduled for
the current cycle mid-drain).
The golden-digest suite proves the same thing end-to-end on full runs;
these tests pin each mechanism in isolation so a violation fails with a
readable diff instead of a digest mismatch.
"""

import pytest

from repro.engine.batch import COHORT_WINDOW, CohortQueue, set_batched_default
from repro.engine.errors import SimulationError
from repro.engine.events import EventQueue
from repro.engine.simulator import Simulator


def _mixed_schedule(sim, fired):
    """A workload exercising same-cycle order, far spills, and re-entry."""
    sim.schedule(3, lambda: fired.append("a@3"))
    sim.schedule(3, lambda: fired.append("b@3"))
    # Beyond the ring window: must spill and come back in order.
    sim.schedule(COHORT_WINDOW + 10, lambda: fired.append("far"))
    sim.schedule(0, lambda: fired.append("now"))

    def reenter():
        fired.append("re@5")
        # Same-cycle append during the cohort drain.
        sim.schedule(0, lambda: fired.append("re-same@5"))
        sim.schedule(2, lambda: fired.append("re-later@7"))

    sim.schedule(5, reenter)


class TestCohortQueue:
    def test_window_must_be_power_of_two(self):
        with pytest.raises(SimulationError):
            CohortQueue(window=3)
        with pytest.raises(SimulationError):
            CohortQueue(window=0)

    def test_empty_queue(self):
        q = CohortQueue()
        assert len(q) == 0
        assert q.peek_time() is None
        with pytest.raises(SimulationError):
            q.pop()

    def test_pop_order_matches_heap_queue(self):
        # Same deterministic pseudo-random schedule into both queues,
        # including times beyond the cohort window (spill path).
        schedule = []
        state = 12345
        for i in range(300):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            schedule.append((state % (2 * COHORT_WINDOW), i))
        heap_q, cohort_q = EventQueue(), CohortQueue()
        heap_order, cohort_order = [], []
        for time, tag in schedule:
            heap_q.schedule(time, lambda t=tag: heap_order.append(t))
            cohort_q.schedule(time, lambda t=tag: cohort_order.append(t))
        while len(heap_q):
            heap_q.pop()()
        while len(cohort_q):
            cohort_q.pop()()
        assert cohort_order == heap_order

    def test_spill_crossover_preserves_seq_order(self):
        # Events for cycle W+1 scheduled BEFORE the window reaches it spill;
        # one scheduled AFTER advance_base buckets directly. Spilled events
        # carry smaller seqs, so they must fire first.
        q = CohortQueue(window=8)
        fired = []
        q.schedule(9, lambda: fired.append("spilled-0"))
        q.schedule(9, lambda: fired.append("spilled-1"))
        q.advance_base(9)  # ring now covers [9, 17); spill pulled in
        q.schedule(9, lambda: fired.append("bucketed"))
        while len(q):
            q.pop()()
        assert fired == ["spilled-0", "spilled-1", "bucketed"]

    def test_peek_time_considers_spill_head(self):
        q = CohortQueue(window=8)
        q.schedule(50, lambda: None)  # beyond window: spills
        assert q.peek_time() == 50


class TestBatchedSimulatorParity:
    """The simulator's drain keeps the queue's ``(time, seq)`` order and
    the ``until``/``max_events``/``stop`` semantics."""

    def _run(self, populate, **run_kwargs):
        sim = Simulator()
        fired = []
        populate(sim, fired)
        end = sim.run(**run_kwargs)
        return fired, end, sim.events_executed

    def test_kernel_flag_selects_queue(self):
        assert Simulator.batched is True
        assert isinstance(Simulator().queue, CohortQueue)

    def test_full_drain_order_and_clock(self):
        fired, end, executed = self._run(_mixed_schedule)
        assert fired == [
            "now", "a@3", "b@3", "re@5", "re-same@5", "re-later@7", "far",
        ]
        assert end == COHORT_WINDOW + 10
        assert executed == 7

    def test_until_bound_leaves_clock_at_until(self):
        fired, end, _ = self._run(_mixed_schedule, until=6)
        assert fired == ["now", "a@3", "b@3", "re@5", "re-same@5"]
        assert end == 6

    def test_max_events_raises_before_excess_callback(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_mid_cohort_keeps_tail(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append("first"))
        sim.schedule(1, sim.stop)
        sim.schedule(1, lambda: fired.append("tail"))
        sim.run()
        assert fired == ["first"]
        assert sim.pending_events == 1
        sim.run()  # resuming drains the kept tail
        assert fired == ["first", "tail"]

    def test_spilled_same_cycle_events_keep_schedule_order(self):
        # Events beyond the window spill one by one; the ones sharing a
        # cycle must come back in schedule order, interleaved correctly
        # with a spilled event for an earlier cycle scheduled between them
        # and with ring events scheduled for that cycle once it is near.
        far = 3 * COHORT_WINDOW

        def populate(sim, fired):
            for i in range(3):
                sim.schedule(far, lambda i=i: fired.append(f"far-{i}"))
            sim.schedule_at(far - 1, lambda: fired.append("before"))
            for i in range(3, 6):
                sim.schedule_at(far, lambda i=i: fired.append(f"far-{i}"))

            def near():
                fired.append("near")
                sim.schedule_at(far, lambda: fired.append("ring"))

            sim.schedule_at(far - 10, near)

        fired, end, executed = self._run(populate)
        assert fired == ["near", "before"] + [f"far-{i}" for i in range(6)] + ["ring"]
        assert end == far
        assert executed == 9

    def test_schedule_returns_nothing(self):
        sim = Simulator()
        assert sim.schedule(1, lambda: None) is None
        assert sim.schedule_at(COHORT_WINDOW * 2, lambda: None) is None
        assert sim.pending_events == 2

    def test_long_horizon_rescheduling_chain(self):
        # A self-rescheduling event that hops half a window each time walks
        # the ring across many advance_base re-centerings and must keep
        # the exact cycle of every hop.
        hop = COHORT_WINDOW // 2 + 7

        def populate(sim, fired):
            def tick(remaining):
                fired.append(sim.now)
                if remaining:
                    sim.schedule(hop, lambda: tick(remaining - 1))

            sim.schedule(0, lambda: tick(10))

        fired, end, executed = self._run(populate)
        assert fired == [i * hop for i in range(11)]
        assert end == 10 * hop
        assert executed == 11


class TestBatchedDefault:
    def test_set_batched_default_round_trips(self):
        # The cohort queue is the only kernel: True is accepted and comes
        # back, False is refused.
        assert set_batched_default(True) is True
        with pytest.raises(ValueError):
            set_batched_default(False)
        assert Simulator.batched is True
