"""Tests for the trace-driven core model against a mock cache and against
real L1 controllers."""

from typing import Callable, Dict, List

import pytest

from repro.config import paper_config
from repro.config.presets import widir_config
from repro.cpu.core import Core
from repro.cpu.sync import PhaseBarrier
from repro.cpu import trace as t
from repro.engine.simulator import Simulator
from repro.harness.runner import run_app
from repro.stats.collectors import Histogram, LatencyStat, StatsRegistry
from repro.system import Manycore
from repro.workloads.generator import build_traces
from repro.workloads.profiles import APP_PROFILES


class MockCache:
    """Deterministic cache stub with a programmable per-line latency."""

    def __init__(self, sim: Simulator, latency: int = 2) -> None:
        self.sim = sim
        self.latency = latency
        self.latency_of: Dict[int, int] = {}
        self.values: Dict[int, int] = {}
        self.calls: List[str] = []

    def _delay(self, address: int) -> int:
        return self.latency_of.get(address >> 6, self.latency)

    def load(self, address: int, on_done: Callable[[int], None]) -> None:
        self.calls.append("load")
        value = self.values.get(address, 0)
        self.sim.schedule(self._delay(address), lambda: on_done(value))

    def store(self, address: int, value: int, on_done: Callable[[], None]) -> None:
        self.calls.append("store")
        self.values[address] = value
        self.sim.schedule(self._delay(address), on_done)

    def rmw(self, address: int, on_done: Callable[[int], None]) -> None:
        self.calls.append("rmw")
        old = self.values.get(address, 0)
        self.values[address] = old + 1
        self.sim.schedule(self._delay(address), lambda: on_done(old))


def run_core(trace, latency=2, config=None, barrier=None, node=0, sim=None):
    sim = sim or Simulator()
    cache = MockCache(sim, latency)
    config = config or paper_config(num_cores=4)
    core = Core(sim, node, cache, config, StatsRegistry(), barrier)
    core.run_trace(trace)
    sim.run()
    assert core.finished
    return core, cache, sim


class TestExecution:
    def test_think_advances_clock_at_issue_width(self):
        core, _, sim = run_core([t.think(40)])
        # 40 instructions at 4-wide = 10 cycles.
        assert core.result.finish_cycle == 10
        assert core.result.instructions == 40

    def test_loads_and_stores_counted_as_instructions(self):
        core, cache, _ = run_core([t.load(0x100), t.store(0x108, 5)])
        assert core.result.instructions == 2
        assert cache.calls == ["load", "store"]

    def test_empty_trace_finishes_immediately(self):
        core, _, sim = run_core([])
        assert core.finished
        assert core.result.finish_cycle == 0

    def test_rmw_values_flow_through_mock(self):
        core, cache, _ = run_core([t.rmw(0x40), t.rmw(0x40)])
        assert cache.values[0x40] == 2


class TestStallAccounting:
    def test_l1_hits_do_not_stall(self):
        """Blocking loads at hit latency are hidden by the grace window."""
        core, _, _ = run_core([t.load(0x100), t.load(0x108)], latency=2)
        assert core.result.memory_stall_cycles == 0

    def test_long_latency_blocking_load_stalls(self):
        core, _, _ = run_core([t.load(0x100)], latency=50)
        # 50 cycles minus the 2-cycle hit grace.
        assert core.result.memory_stall_cycles == 48

    def test_nonblocking_loads_overlap(self):
        trace = [t.load(0x100, blocking=False), t.think(400)]
        core, _, _ = run_core(trace, latency=50)
        assert core.result.memory_stall_cycles == 0
        assert core.result.finish_cycle == 100  # dominated by think time

    def test_load_latency_recorded_even_when_overlapped(self):
        trace = [t.load(0x100, blocking=False), t.think(400)]
        core, _, _ = run_core(trace, latency=50)
        assert core.result.load_latency.count == 1
        assert core.result.load_latency.total == 50

    def test_mlp_limit_throttles_outstanding_loads(self):
        config = paper_config(num_cores=4)
        many_loads = [t.load(0x1000 + 64 * i, blocking=False) for i in range(16)]
        core, _, _ = run_core(many_loads, latency=30, config=config)
        # 16 loads, 8 at a time, 30 cycles each: at least two waves.
        assert core.result.finish_cycle >= 60
        assert core.result.memory_stall_cycles > 0

    def test_store_buffer_hides_store_latency(self):
        trace = [t.store(0x100, 1), t.think(400)]
        core, _, _ = run_core(trace, latency=50)
        assert core.result.memory_stall_cycles == 0

    def test_rmw_blocks_until_complete(self):
        core, _, _ = run_core([t.rmw(0x100)], latency=50)
        assert core.result.memory_stall_cycles == 50

    def test_rmw_drains_older_stores_first(self):
        """The atomic must wait for the write buffer to drain."""
        trace = [t.store(0x100, 1), t.rmw(0x200)]
        core, cache, _ = run_core(trace, latency=10)
        assert cache.calls == ["store", "rmw"]
        assert core.result.memory_stall_cycles >= 10  # drained the store


class TestBarriers:
    def test_cores_align_at_barrier(self):
        sim = Simulator()
        config = paper_config(num_cores=2)
        barrier = PhaseBarrier(2)
        caches = [MockCache(sim, 2), MockCache(sim, 2)]
        cores = [
            Core(sim, n, caches[n], config, StatsRegistry(), barrier)
            for n in range(2)
        ]
        cores[0].run_trace([t.think(400), t.barrier(0)])
        cores[1].run_trace([t.barrier(0)])
        sim.run()
        # Core 1 waited ~100 cycles for core 0.
        assert cores[1].result.sync_stall_cycles >= 99
        assert cores[0].result.sync_stall_cycles == 0

    def test_barrier_ignored_without_coordinator(self):
        core, _, _ = run_core([t.barrier(0), t.think(4)], barrier=None)
        assert core.result.finish_cycle == 1

    def test_sync_stall_separate_from_memory_stall(self):
        sim = Simulator()
        config = paper_config(num_cores=2)
        barrier = PhaseBarrier(2)
        caches = [MockCache(sim, 50), MockCache(sim, 2)]
        cores = [
            Core(sim, n, caches[n], config, StatsRegistry(), barrier)
            for n in range(2)
        ]
        cores[0].run_trace([t.load(0x100), t.barrier(0)])
        cores[1].run_trace([t.barrier(0)])
        sim.run()
        assert cores[0].result.memory_stall_cycles == 48
        assert cores[1].result.sync_stall_cycles > 0


class ProbelessCache:
    """A real L1 controller seen through the stand-in API only (no probes),
    so the core takes its general path and records every latency at
    completion: the reference for the folded hit statistics."""

    def __init__(self, cache) -> None:
        self.load = cache.load
        self.store = cache.store
        self.rmw = cache.rmw


def _stat_fields(stat):
    fields = (stat.count, stat.total, stat.min, stat.max)
    if isinstance(stat, Histogram):
        fields += (tuple(stat.buckets),)
    return fields


class TestHitStatsOnRealCache:
    """L1 hits are counted per core and folded into the latency stats by
    ``Core.flush_stats``; the fold must equal recording every hit."""

    HIT_LOADS = 12
    HIT_STORES = 5

    def _trace(self):
        # Cold misses on two lines (the think lets the store miss land),
        # then hits: blocking and non-blocking loads, and stores to the
        # now-Modified line; a last cold load miss.
        trace = [t.load(0x1000), t.store(0x2000, 1), t.think(2000)]
        trace += [t.load(0x1000 + 8 * (i % 8), blocking=bool(i % 2))
                  for i in range(self.HIT_LOADS)]
        trace += [t.store(0x2000 + 8 * i, i) for i in range(self.HIT_STORES)]
        trace += [t.think(8), t.load(0x3000)]
        return trace

    def _run(self, probeless: bool):
        config = widir_config(num_cores=4)
        machine = Manycore(config)
        cache = machine.caches[0]
        core = Core(
            machine.sim, 0, ProbelessCache(cache) if probeless else cache,
            config, machine.stats,
        )
        core.run_trace(self._trace())
        machine.run()
        assert core.finished
        return core, config

    def test_folded_hits_match_per_access_records(self):
        core, config = self._run(probeless=False)
        reference, _ = self._run(probeless=True)
        hit = config.l1.round_trip_cycles
        result = core.result
        for name in ("load_latency", "store_latency", "latency_hist"):
            assert _stat_fields(getattr(result, name)) == _stat_fields(
                getattr(reference.result, name)
            ), name
        assert result.finish_cycle == reference.result.finish_cycle
        loads = result.load_latency
        assert loads.count == self.HIT_LOADS + 2
        assert loads.min == hit and loads.max > hit
        stores = result.store_latency
        assert stores.count == self.HIT_STORES + 1
        assert stores.min == hit and stores.max > hit
        misses = loads.total + stores.total - hit * (self.HIT_LOADS + self.HIT_STORES)
        hist = result.latency_hist
        assert hist.count == loads.count + stores.count
        assert hist.total == hit * (self.HIT_LOADS + self.HIT_STORES) + misses
        assert hist.buckets[hit.bit_length()] >= self.HIT_LOADS + self.HIT_STORES

    def test_flush_stats_is_idempotent(self):
        core, _ = self._run(probeless=False)
        assert core._load_hits == 0 and core._store_hits == 0
        result = core.result
        before = [_stat_fields(s) for s in
                  (result.load_latency, result.store_latency, result.latency_hist)]
        core.flush_stats()
        core.flush_stats()
        after = [_stat_fields(s) for s in
                 (result.load_latency, result.store_latency, result.latency_hist)]
        assert after == before

    def test_record_times_equals_repeated_record(self):
        for cls in (LatencyStat, Histogram):
            once, repeated = cls("a"), cls("b")
            once.record(7)
            repeated.record(7)
            once.record(3, 4)
            for _ in range(4):
                repeated.record(3)
            assert _stat_fields(once) == _stat_fields(repeated)


class TestOneProbePerAccess:
    """A real machine probes its L1 exactly once per load and per store and
    reads the hit from the probe's return value: what the benchmark's
    ``coherence.l1_probes`` count measures."""

    def test_probe_calls_per_access(self):
        app, cores, memops = "radiosity", 8, 200
        calls = {"load_probe": 0, "store_probe": 0, "load_hit": 0,
                 "store_hit": 0, "load_miss": 0, "store_miss": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                result = fn(*args)
                if name.endswith("probe"):
                    assert result is True or result is False
                    if result:
                        calls[name.replace("probe", "hit")] += 1
                return result
            return wrapper

        class Sink(list):
            def append(self, machine):
                for cache in machine.caches:
                    cache.load_probe = counted("load_probe", cache.load_probe)
                    cache.store_probe = counted("store_probe", cache.store_probe)
                    cache.load_miss = counted("load_miss", cache.load_miss)
                    cache.store_miss = counted("store_miss", cache.store_miss)

        result = run_app(app, widir_config(num_cores=cores), memops, 3,
                         machine_sink=Sink())
        traces = build_traces(APP_PROFILES[app], cores, memops, 3)
        loads = sum(trace.kinds.count(t.OP_LOAD) for trace in traces)
        stores = sum(trace.kinds.count(t.OP_STORE) for trace in traces)
        assert calls["load_probe"] == loads
        assert calls["store_probe"] == stores
        assert calls["load_hit"] + calls["load_miss"] == loads
        assert calls["store_hit"] + calls["store_miss"] == stores
        assert 0 < calls["load_hit"] < loads
        assert 0 < calls["store_hit"] < stores
        counters = result.stats_counters
        assert loads == sum(counters[f"l1.{n}.loads"] for n in range(cores))
        assert stores == sum(counters[f"l1.{n}.stores"] for n in range(cores))


class TestProbeTouchesLru:
    """A probe that finds its line makes it most recently used, exactly as
    ``CacheArray.lookup`` does. The golden digests alone do not pin this:
    their runs evict too little for a skipped touch to show."""

    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_probe_hit_makes_line_mru(self, kind):
        cache = Manycore(widir_config(num_cores=4)).caches[0]
        array = cache.array
        assert array.associativity >= 2
        ways = [way * array.num_sets for way in range(array.associativity)]
        for line in ways:  # fill one set, oldest first
            array.insert(line, "E")
        address = ways[0] << cache._line_shift
        if kind == "load":
            assert cache.load_probe(address) is True
        else:
            assert cache.store_probe(address, 1) is True
        assert array.victim_for(len(ways) * array.num_sets).line == ways[1]

    def test_probe_of_non_resident_line_misses_without_touching(self):
        cache = Manycore(widir_config(num_cores=4)).caches[0]
        array = cache.array
        ways = [way * array.num_sets for way in range(array.associativity)]
        for line in ways:
            array.insert(line, "E")
        absent = (len(ways) * array.num_sets) << cache._line_shift
        assert cache.load_probe(absent) is False
        assert cache.store_probe(absent, 1) is False
        assert array.victim_for(len(ways) * array.num_sets).line == ways[0]


class TestTraceHelpers:
    def test_count_instructions(self):
        trace = [t.think(10), t.load(0), t.store(0, 1), t.rmw(0), t.barrier(0)]
        assert t.count_instructions(trace) == 13

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            t.TraceOp("jump")
