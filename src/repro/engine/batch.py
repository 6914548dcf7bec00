"""Batched epoch scheduling: the cohort (calendar) event queue.

A binary heap (:class:`~repro.engine.events.EventQueue`) pays an O(log n)
tuple-compare push *and* pop per event. Profiles of full runs show the
overwhelming majority of events are scheduled a short, bounded distance
into the future (L1 hit latencies, mesh hops, memory round trips, tone
windows), which is the textbook calendar-queue regime: keep a ring of
per-cycle *cohort* buckets and drain each cycle's cohort as one list walk.

Ordering is **exactly** the heap's ``(time, seq)`` total order: by cycle,
then by schedule order. ``test_pop_order_matches_heap_queue`` checks it
against :class:`~repro.engine.events.EventQueue`. Why it holds:

* Within one bucket, events append in ``seq`` order (appends happen in
  schedule order and ``seq`` is monotonic), so a list walk *is* the heap
  order for that cycle.
* Events scheduled beyond the ring window land in a spill heap keyed by
  ``(time, seq)``. For any cycle T there is a single crossover: while T is
  outside the window every schedule for T spills, and once the window
  reaches T every schedule for T buckets — the ring base only grows. All
  spilled events for T therefore precede all bucketed events for T in
  ``seq``, so pulling the spill (heap-ordered) into the bucket *before*
  later appends preserves the total order.
* An event scheduled for the *current* cycle during that cycle's drain
  appends to the bucket being walked and is picked up by the same walk —
  the "same-cycle cohort drains in one pass without re-entering the heap"
  property the cohort queue exists for.

Besides the bucket fields ``Simulator.run`` walks directly, the queue
exposes ``schedule``, ``__len__``, ``peek_time`` and ``pop`` for tests and
diagnostics.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.engine.errors import SimulationError
from repro.engine.events import Event

#: Ring width in cycles. Must be a power of two and comfortably larger than
#: the longest common delay (memory round trips ~80, wireless backoff up to
#: a few hundred); rarer longer delays spill to the heap and are pulled
#: back as the window advances.
COHORT_WINDOW = 4096


def set_batched_default(enabled: bool) -> bool:
    """Pin the event kernel: ``True`` is accepted and returned, ``False``
    raises :class:`ValueError`.

    The cohort queue is the simulator's one kernel. The function stays for
    callers that pin the kernel explicitly.
    """
    if not enabled:
        raise ValueError("the simulator has one event kernel, the cohort queue")
    return True


class CohortQueue:
    """Cycle-bucketed event queue with heap-identical ordering.

    The drain loop in ``Simulator.run`` walks the buckets directly.
    """

    __slots__ = (
        "_buckets",
        "_mask",
        "_window",
        "_spill",
        "_seq",
        "_live",
        "_ring_live",
        "_base",
        "_horizon",
    )

    def __init__(self, window: int = COHORT_WINDOW) -> None:
        if window <= 0 or window & (window - 1):
            raise SimulationError(f"cohort window must be a power of two, got {window}")
        self._window = window
        self._mask = window - 1
        self._buckets: List[List[Event]] = [[] for _ in range(window)]
        #: Events whose cycle lies at or beyond ``_horizon``.
        self._spill: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Live events currently resident in the ring (excludes spill).
        self._ring_live = 0
        #: Smallest cycle the ring can currently represent. Advanced by the
        #: simulator's drain loop (never rewound).
        self._base = 0
        #: ``_base + _window``, maintained as one field so the schedule hot
        #: path tests a single attribute.
        self._horizon = window

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------- schedule

    def schedule(self, time: int, callback: Callable[[], None]) -> Event:
        """Enqueue ``callback`` at absolute cycle ``time`` (seq-ordered)."""
        seq = self._seq
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        self._seq = seq + 1
        self._live += 1
        if time < self._horizon:
            self._buckets[time & self._mask].append(event)
            self._ring_live += 1
        else:
            heapq.heappush(self._spill, (time, seq, event))
        return event

    # ------------------------------------------------------------ advancing

    def advance_base(self, base: int) -> None:
        """Move the ring window to ``[base, base + window)``.

        Pulls every spilled event now inside the window into its bucket.
        Heap pops come out in ``(time, seq)`` order and, per the crossover
        argument in the module docstring, precede any future appends for
        the same cycle — total order is preserved.
        """
        self._base = base
        horizon = base + self._window
        self._horizon = horizon
        spill = self._spill
        if not spill:
            return
        buckets = self._buckets
        mask = self._mask
        pulled = 0
        while spill and spill[0][0] < horizon:
            _, _, event = heapq.heappop(spill)
            buckets[event.time & mask].append(event)
            pulled += 1
        self._ring_live += pulled

    def next_event_time(self, start: int, bound: Optional[int] = None) -> Optional[int]:
        """Cycle of the next live event at or after ``start``.

        Scans the ring from ``start`` (bounded by occupancy and the spill
        head) and considers the spill heap; returns None when empty or when
        the next event lies beyond ``bound``.
        """
        self._drop_dead_spill()
        spill_head = self._spill[0][0] if self._spill else None
        if self._ring_live:
            buckets = self._buckets
            mask = self._mask
            limit = self._horizon
            cycle = start
            while cycle < limit:
                if bound is not None and cycle > bound:
                    return None
                if spill_head is not None and spill_head <= cycle:
                    break  # pull the spill before walking further
                bucket = buckets[cycle & mask]
                if bucket:
                    for event in bucket:
                        if not event.cancelled:
                            return cycle
                    # Entire cohort cancelled: reclaim the bucket now.
                    self._live -= len(bucket)
                    self._ring_live -= len(bucket)
                    del bucket[:]
                cycle += 1
        if spill_head is None:
            return None
        if bound is not None and spill_head > bound:
            return None
        return spill_head

    def _drop_dead_spill(self) -> None:
        spill = self._spill
        while spill and spill[0][2].cancelled:
            heapq.heappop(spill)
            self._live -= 1

    # ----------------------------------------------- EventQueue-compat API

    def peek_time(self) -> Optional[int]:
        """Cycle of the next live event, or None (EventQueue-compatible)."""
        return self.next_event_time(self._base)

    def pop(self) -> Event:
        """Remove and return the next live event (EventQueue-compatible).

        Used by diagnostics and tests, not by the simulator's drain loop (which
        walks whole cohorts in place).
        """
        time = self.peek_time()
        if time is None:
            raise SimulationError("pop() on an empty event queue")
        self.advance_base(time)
        bucket = self._buckets[time & self._mask]
        while bucket:
            event = bucket.pop(0)
            self._live -= 1
            self._ring_live -= 1
            if not event.cancelled and event.time == time:
                return event
        raise SimulationError("pop() on an empty event queue")  # pragma: no cover
