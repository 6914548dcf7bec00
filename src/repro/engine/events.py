"""Cycle-resolution event queue.

Heap entries are ``(time, seq, event)`` triples. The monotonically
increasing sequence number makes ordering *total* and therefore
deterministic: two events scheduled for the same cycle always fire in the
order they were scheduled, regardless of heap internals. Keeping plain
``(int, int, ...)`` tuples at the front of each entry means every heap
comparison is resolved in C by tuple ordering — profiles of full runs
showed ``Event.__lt__`` as the single hottest function when the heap held
rich objects directly (the ``seq`` tie-break guarantees the third element
is never compared).
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from typing import Callable, List, Optional, Tuple

from repro.engine.errors import SimulationError


class Event:
    """A scheduled callback; supports O(1) cancellation via a tombstone flag."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it is skipped (not executed) when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects.

    The simulator runs on :class:`~repro.engine.batch.CohortQueue`; this
    heap is the plain statement of the ``(time, seq)`` order that the
    cohort queue is tested against.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, time: int, callback: Callable[[], None]) -> Event:
        """Enqueue ``callback`` to run at absolute cycle ``time``.

        ``Event.__init__`` is bypassed (``__new__`` + direct slot stores):
        this is the most-called allocation site in the simulator and the
        constructor frame showed up in profiles on its own.
        """
        seq = self._seq
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        self._seq = seq + 1
        self._live += 1
        _heappush(self._heap, (time, seq, event))
        return event

    def peek_time(self) -> Optional[int]:
        """Return the cycle of the next live event, or None if empty."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Event:
        """Remove and return the next live event.

        Tombstones are skipped *inside* the pop loop rather than by a
        separate ``_drop_dead`` pre-scan. This guarantees a callback that
        cancels the head between ``peek_time()`` and ``pop()`` in the same
        cycle can never be handed a dead event, and avoids walking the same
        tombstone run twice when the two calls are made back-to-back.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            self._live -= 1
            if not event.cancelled:
                return event
        raise SimulationError("pop() on an empty event queue")

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._live -= 1
