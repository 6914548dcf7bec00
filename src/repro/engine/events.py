"""Cycle-resolution event queue: the ``(time, seq)`` ordering reference.

Heap entries are ``(time, seq, callback)`` triples. The monotonically
increasing sequence number makes ordering *total* and therefore
deterministic: two events scheduled for the same cycle always fire in the
order they were scheduled, regardless of heap internals. The ``seq``
tie-break also guarantees the callback is never compared, so every heap
comparison is resolved in C by tuple ordering.

Events are bare callbacks: the simulator has no event cancellation. A
component that must take back a scheduled action (the wireless channel's
transmit requests) keeps its own flag and checks it when the callback runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.engine.errors import SimulationError


class EventQueue:
    """Deterministic min-heap of callbacks.

    The simulator runs on :class:`~repro.engine.batch.CohortQueue`; this
    heap is the plain statement of the ``(time, seq)`` order that the
    cohort queue is tested against.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, callback: Callable[[], None]) -> None:
        """Enqueue ``callback`` to run at absolute cycle ``time``."""
        heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def peek_time(self) -> Optional[int]:
        """Return the cycle of the next event, or None if empty."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Callable[[], None]:
        """Remove and return the next event's callback."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        return heappop(self._heap)[2]
