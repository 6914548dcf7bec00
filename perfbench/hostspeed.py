"""Host speed, measured by a fixed reference slice timed beside the passes.

The benchmark runs on a shared machine whose speed drifts by ±20% within
a minute and moves between levels that last minutes; every host time of a
pass moves with it. So each untraced pass also times a fixed *reference
slice* between its timed sections: a small pure-Python event-driven cache
model doing the same kind of work as the simulator (heap-ordered events,
dict lookups, small objects, sets of sharers). It lives here, so no change
to ``src/`` changes it. A pass's host times are scaled to a host on which
the slice takes :data:`NOMINAL_S` seconds:

    scaled time = raw time x NOMINAL_S / median(slice times of the pass)

Slice time is left out of every raw time. The collector is off during a
slice, so the objects the simulator keeps alive do not change its time,
and its memory (about 3.5 MB) stays below what any simulation holds.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Seconds one reference slice takes on the reference host (a 2-vCPU Xeon
#: VM in a quiet minute); it only sets the scale of scaled times.
NOMINAL_S = 0.25
#: Accesses one slice simulates.
SLICE_EVENTS = 60_000
#: Cores, sets and ways of the reference model, and the lines it draws.
CORES, SETS, WAYS = 16, 32, 4
PRIVATE_LINES, SHARED_LINES = 384, 4096


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag, dirty, stamp):
        self.tag = tag
        self.dirty = dirty
        self.stamp = stamp


class _Cache:
    __slots__ = ("sets", "hits")

    def __init__(self):
        self.sets = [{} for _ in range(SETS)]
        self.hits = 0

    def access(self, addr, now, write):
        """Latency of one access; evicts the least recently used way."""
        ways = self.sets[addr % SETS]
        line = ways.get(addr)
        if line is not None:
            self.hits += 1
            line.stamp = now
            line.dirty = line.dirty or write
            return 1
        if len(ways) >= WAYS:
            victim = min(ways.values(), key=lambda way: way.stamp)
            del ways[victim.tag]
        ways[addr] = _Line(addr, write, now)
        return 20

    def invalidate(self, addr):
        self.sets[addr % SETS].pop(addr, None)


def reference_slice(events: int = SLICE_EVENTS) -> int:
    """The fixed reference work: ``events`` accesses of 16 cores through
    private LRU caches and a sharer directory. Deterministic; returns the
    total hit count."""
    rng = random.Random(1)
    caches = [_Cache() for _ in range(CORES)]
    directory = {}
    heap = [(0, core) for core in range(CORES)]
    for _ in range(events):
        now, core = heapq.heappop(heap)
        if rng.random() < 0.3:
            addr = rng.randrange(SHARED_LINES)
        else:
            addr = SHARED_LINES + core * PRIVATE_LINES + rng.randrange(PRIVATE_LINES)
        write = rng.random() < 0.2
        latency = caches[core].access(addr, now, write)
        if latency > 1:
            sharers = directory.setdefault(addr, set())
            if write:
                for other in sharers:
                    if other != core:
                        caches[other].invalidate(addr)
                sharers.clear()
            sharers.add(core)
        heapq.heappush(heap, (now + latency, core))
    return sum(cache.hits for cache in caches)


class HostClock:
    """The reference slices of one pass and the time they took."""

    #: A slice is due when the last one ended this many seconds ago.
    EVERY_S = 2.0

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._last = None

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_slice()
            ended = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(ended - started)
        self.spent_s += ended - started
        self._last = ended

    def sample_if_due(self) -> None:
        if self._last is None or time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()
