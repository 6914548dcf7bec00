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

* Within one bucket, events append in schedule order, which is the
  heap's ``seq`` order, so a list walk *is* the heap order for that cycle.
* Events scheduled beyond the ring window land in a spill heap keyed by
  ``(time, seq)``; ``seq`` is drawn only when an event spills, so it is
  monotonic among spilled events. For any cycle T there is a single
  crossover: while T is outside the window every schedule for T spills,
  and once the window reaches T every schedule for T buckets — the ring
  base only grows. All spilled events for T were therefore scheduled
  before all bucketed events for T, so pulling the spill (heap-ordered)
  into the bucket *before* later appends preserves the total order.
* An event scheduled for the *current* cycle during that cycle's drain
  appends to the bucket being walked and is picked up by the same walk —
  the "same-cycle cohort drains in one pass without re-entering the heap"
  property the cohort queue exists for.

Ring buckets hold bare callbacks: there is no per-event object and no
cancellation (see :mod:`repro.engine.events`).

Besides the bucket fields ``Simulator.run`` walks directly, the queue
exposes ``schedule``, ``__len__``, ``peek_time`` and ``pop`` for tests and
diagnostics.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.engine.errors import SimulationError

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
        "_ring_live",
        "_base",
        "_horizon",
    )

    def __init__(self, window: int = COHORT_WINDOW) -> None:
        if window <= 0 or window & (window - 1):
            raise SimulationError(f"cohort window must be a power of two, got {window}")
        self._window = window
        self._mask = window - 1
        self._buckets: List[List[Callable[[], None]]] = [[] for _ in range(window)]
        #: ``(time, seq, callback)`` for events at or beyond ``_horizon``.
        self._spill: List[Tuple[int, int, Callable[[], None]]] = []
        #: Spill sequence number (ring events need none: see module doc).
        self._seq = 0
        #: Events currently resident in the ring (excludes spill).
        self._ring_live = 0
        #: Smallest cycle the ring can currently represent. Advanced by the
        #: simulator's drain loop (never rewound).
        self._base = 0
        #: ``_base + _window``, maintained as one field so the schedule hot
        #: path tests a single attribute.
        self._horizon = window

    def __len__(self) -> int:
        return self._ring_live + len(self._spill)

    # ------------------------------------------------------------- schedule

    def schedule(self, time: int, callback: Callable[[], None]) -> None:
        """Enqueue ``callback`` at absolute cycle ``time`` (schedule-ordered)."""
        if time < self._horizon:
            self._buckets[time & self._mask].append(callback)
            self._ring_live += 1
        else:
            heapq.heappush(self._spill, (time, self._seq, callback))
            self._seq += 1

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
        buckets = self._buckets
        mask = self._mask
        while spill and spill[0][0] < horizon:
            time, _, callback = heapq.heappop(spill)
            buckets[time & mask].append(callback)
            self._ring_live += 1

    # ----------------------------------------------- EventQueue-compat API

    def peek_time(self) -> Optional[int]:
        """Cycle of the next event, or None (EventQueue-compatible)."""
        if self._ring_live:
            # Ring events lie in [_base, _horizon); spilled ones at or
            # beyond _horizon, so the ring holds the earliest event.
            buckets = self._buckets
            mask = self._mask
            cycle = self._base
            while not buckets[cycle & mask]:
                cycle += 1
            return cycle
        return self._spill[0][0] if self._spill else None

    def pop(self) -> Callable[[], None]:
        """Remove and return the next event's callback (EventQueue-compatible).

        Used by diagnostics and tests, not by the simulator's drain loop (which
        walks whole cohorts in place).
        """
        time = self.peek_time()
        if time is None:
            raise SimulationError("pop() on an empty event queue")
        self.advance_base(time)
        self._ring_live -= 1
        return self._buckets[time & self._mask].pop(0)
