"""The simulation kernel: a clock plus an event queue.

Every hardware structure in the library is modelled as plain Python objects
that react to callbacks scheduled here. Time is an integer cycle count at the
core clock (1 GHz in the paper's Table III, so 1 cycle == 1 ns, which is also
how the wireless channel latencies are expressed).
"""

from __future__ import annotations

from heapq import heappush
from sys import maxsize
from typing import Callable, List, Optional

from repro.engine.batch import CohortQueue
from repro.engine.errors import SimulationError
from repro.engine.rng import DeterministicRng


class Simulator:
    """Owns the clock, the event queue, and the root RNG.

    Events live in the cohort (calendar) queue of
    :mod:`repro.engine.batch` and run in ``(time, seq)`` order: by cycle,
    then in the order they were scheduled. That order fixes every
    simulated result, and so every golden digest.

    Parameters
    ----------
    seed:
        Root seed from which all component RNG streams are split.
    """

    #: The simulator has one event kernel, the cohort queue. The constant
    #: stays so callers that record which kernel a machine ran keep working.
    batched = True

    def __init__(self, seed: int = 0) -> None:
        self.queue = CohortQueue()
        self.now = 0
        self.rng = DeterministicRng(seed)
        self._events_executed = 0
        self._stopped = False
        #: Callbacks invoked after :meth:`run` fully drains the queue (the
        #: queue is empty — not on an ``until`` bound or a :meth:`stop`).
        #: Hooks must not schedule new events; they are for end-of-run
        #: bookkeeping (e.g. the observability orphan-span audit + final
        #: counter sample). The list is empty by default and costs one
        #: truthiness test per :meth:`run` return.
        self.drain_hooks: List[Callable[[], None]] = []

    @property
    def events_executed(self) -> int:
        """Total callbacks run so far (a cheap progress / cost metric)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Events still queued.

        Periodic observers (e.g. the online invariant checker) use this to
        decide whether to re-arm: a self-rescheduling event would otherwise
        keep :meth:`run`'s drain loop alive forever.
        """
        return len(self.queue)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0).

        The queue insert is inlined (mirroring :meth:`CohortQueue.schedule`
        exactly): scheduling is the most-called operation in the kernel and
        the extra call frame was measurable.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        queue = self.queue
        if time < queue._horizon:
            queue._buckets[time & queue._mask].append(callback)
            queue._ring_live += 1
        else:
            heappush(queue._spill, (time, queue._seq, callback))
            queue._seq += 1

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute cycle ``time`` (time >= now).

        Inlined like :meth:`schedule`; the ordering semantics are identical
        to ``CohortQueue.schedule``.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, already at cycle {self.now}"
            )
        queue = self.queue
        if time < queue._horizon:
            queue._buckets[time & queue._mask].append(callback)
            queue._ring_live += 1
        else:
            heappush(queue._spill, (time, queue._seq, callback))
            queue._seq += 1

    def stop(self) -> None:
        """Request that :meth:`run` return before the next event."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue; return the final cycle.

        This is the hottest loop in the simulator, so it walks the cohort
        queue's buckets directly instead of going through
        ``peek_time()``/``pop()``. Each iteration advances the clock to the
        next occupied cycle and drains that cycle's *entire cohort* as one
        ``for`` loop over the bucket, including events the cohort schedules
        for its own cycle: they append to the list being walked and are
        picked up by the same loop. Ordering is the ``(time, seq)`` total
        order of :mod:`repro.engine.batch`.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this cycle. The
            clock is left at ``until`` in that case.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` *before*
            executing event ``max_events + 1`` in this call, i.e. at most
            ``max_events`` callbacks run (a runaway protocol loop otherwise
            spins forever). The event that would exceed the budget stays
            queued.
        """
        self._stopped = False
        queue = self.queue
        buckets = queue._buckets
        mask = queue._mask
        spill = queue._spill
        half_window = queue._window >> 1
        adv_at = queue._base + half_window
        #: Callbacks this call may still run.
        room = max_events if max_events is not None else maxsize
        cycle = self.now
        while not self._stopped:
            # ---- locate the next occupied cycle (inline scan; the method
            # ---- version is CohortQueue.peek_time). Ring events lie in
            # ---- [now, horizon), so the scan ends inside the ring.
            if queue._ring_live:
                while not buckets[cycle & mask]:
                    cycle += 1
            else:
                if not spill:
                    break  # fully drained; the clock stays where it is
                cycle = spill[0][0]
                queue.advance_base(cycle)
                adv_at = cycle + half_window
                continue  # spill pulled into the ring; rescan from its cycle
            if until is not None and cycle > until:
                self.now = until
                break
            if cycle >= adv_at:
                # Re-centre the window every half-window of progress: the
                # horizon stays >= window/2 ahead of the clock (so schedules
                # essentially never spill) and due spill events are pulled
                # into their buckets while the clock is still short of them
                # (spill times always lie at/beyond the pre-advance horizon).
                queue.advance_base(cycle)
                adv_at = cycle + half_window
            self.now = cycle
            bucket = buckets[cycle & mask]
            # ---- drain the whole cohort in one pass; same-cycle appends
            # ---- made by callbacks extend the walk.
            consumed = 0
            try:
                for consumed, callback in enumerate(bucket, 1):
                    if consumed > room:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely a livelocked protocol transaction"
                        )
                    callback()
                    if self._stopped:
                        break
            except BaseException:
                # The event over budget never ran and one whose callback
                # raised did not complete: either stays queued with the
                # rest of the cohort, and only the events before it count.
                self._retire(bucket, consumed - 1)
                raise
            room -= consumed
            self._retire(bucket, consumed)
        if self.drain_hooks and not len(queue):
            for hook in self.drain_hooks:
                hook()
        return self.now

    def _retire(self, bucket: List[Callable[[], None]], consumed: int) -> None:
        """Count and remove the first ``consumed`` callbacks of ``bucket``
        (all of it after a full drain; a stop or budget keeps the tail)."""
        self._events_executed += consumed
        self.queue._ring_live -= consumed
        del bucket[:consumed]
