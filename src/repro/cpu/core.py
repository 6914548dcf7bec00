"""The trace-driven core model.

The model reproduces the *occupancy* behaviour of the paper's out-of-order
core (Table III) without simulating a pipeline:

* non-memory instructions retire at ``issue_width`` per cycle;
* loads issue asynchronously up to ``max_outstanding_misses`` in flight
  (memory-level parallelism); a *blocking* load additionally stalls the core
  until its own data returns, modelling a use-dependent consumer nearby;
* stores retire into the write buffer and drain concurrently; the core only
  stalls when the buffer is full;
* atomics (RMW) drain the write buffer and outstanding loads first, then
  block — the consistency-model behaviour the paper's wireless RMW respects;
* barriers align all cores via a :class:`~repro.cpu.sync.PhaseBarrier`.

Every cycle the core spends blocked on any of the above is attributed to
``memory_stall_cycles`` (barrier waits go to ``sync_stall_cycles``), which is
exactly the decomposition behind the paper's Figure 8 bars. Per-operation
latencies (issue to completion) feed Figure 7.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config.system import SystemConfig
from repro.cpu.sync import PhaseBarrier
from repro.cpu.trace import (
    OP_BARRIER,
    OP_LOAD,
    OP_RMW,
    OP_STORE,
    OP_THINK,
    TraceChunk,
)
from repro.engine.simulator import Simulator
from repro.stats.collectors import Histogram, LatencyStat, StatsRegistry


class CoreResult:
    """Summary of one core's execution of its trace."""

    __slots__ = (
        "node",
        "finish_cycle",
        "instructions",
        "memory_stall_cycles",
        "sync_stall_cycles",
        "load_latency",
        "store_latency",
        "latency_hist",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.finish_cycle = 0
        self.instructions = 0
        self.memory_stall_cycles = 0
        self.sync_stall_cycles = 0
        self.load_latency = LatencyStat(f"core{node}.load_latency")
        self.store_latency = LatencyStat(f"core{node}.store_latency")
        #: Combined load+store+RMW latency distribution (p50/p95/p99 come
        #: from here; the LatencyStats above only keep min/mean/max).
        self.latency_hist = Histogram(f"core{node}.memory_latency")

    @property
    def total_memory_latency(self) -> int:
        return self.load_latency.total + self.store_latency.total


class Core:
    """Executes one trace against one tile's cache controller."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        cache,
        config: SystemConfig,
        stats: StatsRegistry,
        barrier: Optional[PhaseBarrier] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.cache = cache
        self.config = config
        self.barrier = barrier
        self.result = CoreResult(node)
        self._issue_width = config.core.issue_width
        self._max_loads = config.core.max_outstanding_misses
        self._wb_capacity = config.core.write_buffer_entries
        self._trace: TraceChunk = TraceChunk()
        # Column bindings (re-bound by ``run_trace``): _step walks these.
        self._kinds: List[str] = []
        self._addresses: List[int] = []
        self._values: List[int] = []
        self._args: List[int] = []
        self._blocking: List[bool] = []
        self._trace_len = 0
        self._pc = 0
        self._chunk_source: Optional[Callable[[], Optional[TraceChunk]]] = None
        self._outstanding_loads = 0
        self._wb_occupancy = 0
        self._stall_started: Optional[int] = None
        self._stall_bucket: Optional[str] = None
        self._stall_grace = 0
        self._wakeup: Optional[Callable[[], bool]] = None
        self._on_finish: Optional[Callable[["Core"], None]] = None
        self._finished = False
        # Counter objects bumped via direct ``.value +=`` in ``_step``: it
        # runs once per trace op and even a bound ``Counter.add`` call was
        # visible in profiles.
        self._instr = stats.counter(f"core.{node}.instructions")
        self._instr_total = stats.counter("core.total.instructions")
        # More hot-path bindings: one attribute hop instead of two or three
        # in the per-operation issue/complete closures.
        self._schedule = sim.schedule
        self._load_record = self.result.load_latency.record
        self._store_record = self.result.store_latency.record
        self._hist_record = self.result.latency_hist.record
        #: L1 hit round trip — the constant latency of every probe hit.
        self._hit_latency = config.l1.round_trip_cycles
        #: L1 hits since the last :meth:`flush_stats`. A hit's latency is
        #: always ``_hit_latency``, so counting hits and folding them into
        #: the latency stats once is exact and saves two records per hit.
        self._load_hits = 0
        self._store_hits = 0
        # Probe/miss entry points, bound once. Cache stand-ins (unit-test
        # mocks, litmus harness stubs) that predate the probe API fall back
        # to the general closure path: the probe reports a guaranteed miss
        # and the miss leg is the stand-in's plain load/store.
        if hasattr(cache, "load_probe"):
            self._load_probe = cache.load_probe
            self._load_miss = cache.load_miss
            self._store_probe = cache.store_probe
            self._store_miss = cache.store_miss
        else:
            self._load_probe = lambda address: False
            self._load_miss = cache.load
            self._store_probe = lambda address, value: False
            self._store_miss = cache.store

    # --------------------------------------------------------------- control

    def run_trace(self, trace, on_finish=None, chunk_source=None) -> None:
        """Begin executing ``trace``; ``on_finish(core)`` fires at completion.

        ``trace`` is a :class:`~repro.cpu.trace.TraceChunk` (the native
        format) or a legacy list of :class:`TraceOp`, converted once here.
        The chunk's columns are bound to attributes so :meth:`_step` walks
        flat scalar lists with no per-op object in sight.

        ``chunk_source``, if given, is a zero-argument callable polled when
        the bound chunk drains: it returns the next :class:`TraceChunk` or
        ``None`` for end-of-stream. The refill happens synchronously inside
        :meth:`_step` — no event is scheduled, no simulated time passes —
        so a streamed trace produces the *identical* event sequence to the
        same ops presented as one monolithic chunk. This is what lets the
        trace-replay frontend drive a billion-reference file in O(chunk)
        memory.
        """
        if not isinstance(trace, TraceChunk):
            trace = TraceChunk.from_ops(trace)
        self._chunk_source = chunk_source
        self._bind_chunk(trace)
        self._finished = False
        self._on_finish = on_finish
        self.sim.schedule(0, self._step)

    def _bind_chunk(self, trace: TraceChunk) -> None:
        self._trace = trace
        self._kinds = trace.kinds
        self._addresses = trace.addresses
        self._values = trace.values
        self._args = trace.args
        self._blocking = trace.blocking
        self._trace_len = len(trace.kinds)
        self._pc = 0

    @property
    def finished(self) -> bool:
        return self._finished

    # ------------------------------------------------------------ execution

    def _step(self) -> None:
        """Advance through trace ops until blocked or done.

        The loop hoists the trace *columns* (struct-of-arrays, see
        :class:`~repro.cpu.trace.TraceChunk`), their length, and the
        scheduler into locals: this method runs once per wake-up across
        every core, and both the repeated attribute walks and the per-op
        ``TraceOp`` indexing dominated its profile. Kind strings are
        interned constants, so each ``==`` below is a pointer compare.

        Loads and stores are issued inline with exactly one L1 probe each.
        A hit's latency is the constant L1 round trip, so the wake-up is
        scheduled directly, in the same ``(time, seq)`` slot the miss
        path's completion would take, and the hit is only counted (see
        :meth:`flush_stats`). A miss goes straight to the cache's miss leg.
        """
        kinds = self._kinds
        addresses = self._addresses
        trace_len = self._trace_len
        while True:
            while self._pc < trace_len:
                pc = self._pc
                kind = kinds[pc]
                if kind == OP_LOAD:
                    if self._outstanding_loads >= self._max_loads:
                        self._block(
                            "memory", lambda: self._outstanding_loads < self._max_loads
                        )
                        return
                    self._pc = pc + 1
                    self.result.instructions += 1
                    self._instr.value += 1
                    self._instr_total.value += 1
                    if self._load_probe(addresses[pc]):
                        self._load_hits += 1
                        if self._blocking[pc]:
                            # The miss path blocks with ``grace == hit
                            # latency`` and so charges a hit zero stall;
                            # skipping the block/wake bookkeeping is
                            # equivalent.
                            self._schedule(self._hit_latency, self._step)
                            return
                        self._outstanding_loads += 1
                        self._schedule(self._hit_latency, self._nb_hit_done)
                    elif not self._load_missed(addresses[pc], self._blocking[pc]):
                        return
                elif kind == OP_THINK:
                    self._pc = pc + 1
                    arg = self._args[pc]
                    self.result.instructions += arg
                    self._instr.value += arg
                    self._instr_total.value += arg
                    cycles = max(1, -(-arg // self._issue_width))
                    self._schedule(cycles, self._step)
                    return
                elif kind == OP_STORE:
                    if self._wb_occupancy >= self._wb_capacity:
                        self._block(
                            "memory", lambda: self._wb_occupancy < self._wb_capacity
                        )
                        return
                    self._pc = pc + 1
                    self.result.instructions += 1
                    self._instr.value += 1
                    self._instr_total.value += 1
                    self._wb_occupancy += 1
                    if self._store_probe(addresses[pc], self._values[pc]):
                        self._store_hits += 1
                        self._schedule(self._hit_latency, self._st_hit_done)
                    else:
                        self._store_missed(addresses[pc], self._values[pc])
                elif kind == OP_RMW:
                    if not self._issue_rmw(addresses[pc]):
                        return
                elif kind == OP_BARRIER:
                    if not self._issue_barrier(self._args[pc]):
                        return
            # Chunk drained: synchronously pull the next one if streaming.
            # Rebinding inside the wake-up keeps the event stream identical
            # to a monolithic trace — no time passes, nothing is scheduled.
            if self._chunk_source is None:
                break
            chunk = self._chunk_source()
            if chunk is None:
                self._chunk_source = None
                break
            self._bind_chunk(chunk)
            kinds = self._kinds
            addresses = self._addresses
            trace_len = self._trace_len
        # Trace drained: the core retires once all memory traffic lands.
        if self._outstanding_loads or self._wb_occupancy:
            self._block("memory", self._no_outstanding)
            return
        self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.result.finish_cycle = self.sim.now
        self.flush_stats()
        if self._on_finish is not None:
            self._on_finish(self)

    def flush_stats(self) -> None:
        """Fold the L1 hits counted since the last flush into the latency
        stats: exact, as every hit took ``_hit_latency`` cycles and the
        collectors keep only order-free counts, sums, extrema and buckets.
        Idempotent; runs when the trace completes."""
        latency = self._hit_latency
        result = self.result
        hits = self._load_hits + self._store_hits
        if self._load_hits:
            result.load_latency.record(latency, self._load_hits)
            self._load_hits = 0
        if self._store_hits:
            result.store_latency.record(latency, self._store_hits)
            self._store_hits = 0
        if hits:
            result.latency_hist.record(latency, hits)

    # --------------------------------------------------------------- stalls

    def _block(
        self, bucket: str, can_continue: Callable[[], bool], grace: int = 0
    ) -> None:
        """Park the core until ``can_continue()``; charge the wait to bucket.

        ``grace`` cycles of the wait are considered hidden by the pipeline
        (an L1 hit under a use-dependent load does not stall a real OoO
        core) and are not charged as stall.
        """
        self._stall_started = self.sim.now
        self._stall_bucket = bucket
        self._stall_grace = grace
        self._wakeup = can_continue

    def _maybe_wake(self) -> None:
        if self._wakeup is None or not self._wakeup():
            return
        started = self._stall_started if self._stall_started is not None else self.sim.now
        waited = self.sim.now - started
        waited = max(0, waited - self._stall_grace)
        if self._stall_bucket == "sync":
            self.result.sync_stall_cycles += waited
        else:
            self.result.memory_stall_cycles += waited
        self._wakeup = None
        self._stall_started = None
        self._stall_bucket = None
        self._stall_grace = 0
        self._step()

    def _no_outstanding(self) -> bool:
        return self._outstanding_loads == 0 and self._wb_occupancy == 0

    # ------------------------------------------------------------- load path

    def _load_missed(self, address: int, blocking: bool) -> bool:
        """Miss leg of a load (issued and counted by :meth:`_step`); False
        when the core must wait for it."""
        self._outstanding_loads += 1
        issued = self.sim.now
        completed = [False]  # one-slot cell: cheaper than a dict in this hot path

        def on_done(_value: int) -> None:
            completed[0] = True
            self._outstanding_loads -= 1
            latency = self.sim.now - issued
            self._load_record(latency)
            self._hist_record(latency)
            self._maybe_wake()

        self._load_miss(address, on_done)
        if blocking and not completed[0]:
            grace = self.config.l1.round_trip_cycles
            self._block("memory", lambda: completed[0], grace=grace)
            return False
        return True

    def _nb_hit_done(self) -> None:
        """Completion of a non-blocking L1 hit load (counted at issue):
        release the MLP slot and re-check any stall condition."""
        self._outstanding_loads -= 1
        self._maybe_wake()

    # ------------------------------------------------------------ store path

    def _store_missed(self, address: int, value: int) -> None:
        """Non-hit leg of a store (issued, counted and given its write-buffer
        slot by :meth:`_step`)."""
        issued = self.sim.now

        def on_done() -> None:
            self._wb_occupancy -= 1
            latency = self.sim.now - issued
            self._store_record(latency)
            self._hist_record(latency)
            self._maybe_wake()

        self._store_miss(address, value, on_done)

    def _st_hit_done(self) -> None:
        """Completion of an M/E store hit (counted at issue):
        drain the write-buffer slot and re-check any stall condition."""
        self._wb_occupancy -= 1
        self._maybe_wake()

    # -------------------------------------------------------------- RMW path

    def _issue_rmw(self, address: int) -> bool:
        # Atomic: per the consistency model the RMW executes only once older
        # memory operations have drained, and younger ones wait for it.
        if not self._no_outstanding():
            self._block("memory", self._no_outstanding)
            return False
        self._pc += 1
        self.result.instructions += 1
        self._instr.value += 1
        self._instr_total.value += 1
        issued = self.sim.now
        completed = [False]

        def on_done(_old: int) -> None:
            completed[0] = True
            latency = self.sim.now - issued
            self._store_record(latency)
            self._hist_record(latency)
            self._maybe_wake()

        self.cache.rmw(address, on_done)
        if not completed[0]:
            self._block("memory", lambda: completed[0])
            return False
        return True

    # ---------------------------------------------------------- barrier path

    def _issue_barrier(self, phase: int) -> bool:
        if self.barrier is None:
            self._pc += 1
            return True
        if not self._no_outstanding():
            self._block("memory", self._no_outstanding)
            return False
        self._pc += 1
        released = [False]

        def on_release() -> None:
            released[0] = True
            self._maybe_wake()

        self.barrier.arrive(phase, on_release)
        if not released[0]:
            self._block("sync", lambda: released[0])
            return False
        return True
