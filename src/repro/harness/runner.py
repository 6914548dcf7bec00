"""Run one application on one machine and collect everything.

``run_app`` assembles a :class:`~repro.system.Manycore`, synthesizes the
application's traces, attaches cores, runs to completion, validates the
coherence invariants, and folds the statistics into a
:class:`SimulationResult`. ``run_pair`` runs the same traces on the Baseline
and the WiDir machine so normalized comparisons share a reference stream.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.config.presets import baseline_config, widir_config
from repro.config.system import SystemConfig
from repro.cpu.core import Core
from repro.cpu.sync import PhaseBarrier
from repro.energy.models import EnergyBreakdown, EnergyModel
from repro.engine.errors import SimulationError
from repro.stats.collectors import Histogram
from repro.system import Manycore
from repro.workloads.generator import build_traces
from repro.workloads.profiles import APP_PROFILES, AppProfile

#: Default memory references per core per run; override with the
#: REPRO_MEMOPS environment variable to trade accuracy for speed.
DEFAULT_MEMOPS = int(os.environ.get("REPRO_MEMOPS", "1500"))

#: Event-count backstop so a harness bug fails fast instead of spinning.
MAX_EVENTS_PER_MEMOP = 600


class SimulationResult:
    """Everything the evaluation needs from one run."""

    def __init__(
        self,
        app: str,
        config: SystemConfig,
        cycles: int,
        instructions: int,
        memory_stall_cycles: int,
        sync_stall_cycles: int,
        load_latency_total: int,
        store_latency_total: int,
        read_misses: int,
        write_misses: int,
        wireless_writes: int,
        sharer_histogram: Dict[str, int],
        hop_histogram: Dict[str, int],
        collision_probability: float,
        energy: EnergyBreakdown,
        stats_counters: Dict[str, int],
        latency_histogram: Optional[Dict] = None,
    ) -> None:
        self.app = app
        self.config = config
        self.cycles = cycles
        self.instructions = instructions
        self.memory_stall_cycles = memory_stall_cycles
        self.sync_stall_cycles = sync_stall_cycles
        self.load_latency_total = load_latency_total
        self.store_latency_total = store_latency_total
        self.read_misses = read_misses
        self.write_misses = write_misses
        self.wireless_writes = wireless_writes
        self.sharer_histogram = sharer_histogram
        self.hop_histogram = hop_histogram
        self.collision_probability = collision_probability
        self.energy = energy
        self.stats_counters = stats_counters
        #: ``Histogram.to_dict()`` of the merged per-core memory-latency
        #: distribution ({} on results loaded from pre-histogram caches).
        self.latency_histogram = latency_histogram or {}

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """Full-fidelity JSON-serializable snapshot of this result.

        Round-tripping through :meth:`from_dict` reproduces a result whose
        ``to_dict()`` output is byte-identical (ints and strings are exact;
        floats survive JSON via ``repr`` round-tripping) — the contract the
        experiment executor's on-disk memoization relies on. The legacy
        human-oriented format lives in :mod:`repro.harness.results_io`.
        """
        return {
            "app": self.app,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "memory_stall_cycles": self.memory_stall_cycles,
            "sync_stall_cycles": self.sync_stall_cycles,
            "load_latency_total": self.load_latency_total,
            "store_latency_total": self.store_latency_total,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "wireless_writes": self.wireless_writes,
            "sharer_histogram": dict(self.sharer_histogram),
            "hop_histogram": dict(self.hop_histogram),
            "collision_probability": self.collision_probability,
            "energy": self.energy.as_dict(),
            "stats_counters": dict(self.stats_counters),
            "latency_histogram": dict(self.latency_histogram),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimulationResult":
        """Reconstruct a result saved by :meth:`to_dict`."""
        from repro.energy.models import EnergyBreakdown as _EnergyBreakdown

        return cls(
            app=payload["app"],
            config=SystemConfig.from_dict(payload["config"]),
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            memory_stall_cycles=payload["memory_stall_cycles"],
            sync_stall_cycles=payload["sync_stall_cycles"],
            load_latency_total=payload["load_latency_total"],
            store_latency_total=payload["store_latency_total"],
            read_misses=payload["read_misses"],
            write_misses=payload["write_misses"],
            wireless_writes=payload["wireless_writes"],
            sharer_histogram=dict(payload["sharer_histogram"]),
            hop_histogram=dict(payload["hop_histogram"]),
            collision_probability=payload["collision_probability"],
            energy=_EnergyBreakdown(**payload["energy"]),
            stats_counters=dict(payload["stats_counters"]),
            # Tolerate caches written before the histogram existed.
            latency_histogram=dict(payload.get("latency_histogram", {})),
        )

    # ------------------------------------------------------ derived metrics

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def mpki(self) -> float:
        """L1 misses per kilo-instruction (Figure 6 / Table IV)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    @property
    def read_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.read_misses / self.instructions

    @property
    def write_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.write_misses / self.instructions

    @property
    def total_memory_latency(self) -> int:
        """Summed per-operation latency (Figure 7)."""
        return self.load_latency_total + self.store_latency_total

    @property
    def total_stall_cycles(self) -> int:
        """Memory stall incl. synchronization waits (Figure 8 breakdown)."""
        return self.memory_stall_cycles + self.sync_stall_cycles

    @property
    def rest_cycles(self) -> int:
        total = self.cycles * self.config.num_cores
        return max(0, total - self.total_stall_cycles)

    @property
    def memory_stall_fraction(self) -> float:
        total = self.cycles * self.config.num_cores
        return self.total_stall_cycles / total if total else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 (plus mean/min/max) of per-op memory latency.

        Empty for results deserialized from caches that predate the
        histogram field.
        """
        if not self.latency_histogram:
            return {}
        from repro.stats.report import percentile_summary

        return percentile_summary(Histogram.from_dict(self.latency_histogram))


def _resolve_profile(app) -> AppProfile:
    if isinstance(app, AppProfile):
        return app
    try:
        return APP_PROFILES[app]
    except KeyError:
        raise KeyError(
            f"unknown application {app!r}; known apps: {sorted(APP_PROFILES)}"
        ) from None


def harvest(
    machine: Manycore, cores: List[Core], config: SystemConfig, app: str
) -> SimulationResult:
    """Fold a finished machine and its cores into a :class:`SimulationResult`.

    The one harvest of live (:func:`run_app`) and replayed
    (:mod:`repro.traces.replay`) runs, so their results stay
    digest-comparable.
    """
    cycles = max(core.result.finish_cycle for core in cores)
    stats = machine.stats
    sharer_hist = stats.histogram(
        "widir.sharers_per_update",
        (((0, 5), (6, 10), (11, 25), (26, 49), (50, None))),
    )
    hop_hist = stats.histogram(
        "noc.hops_per_leg", ((0, 2), (3, 5), (6, 8), (9, 11), (12, None))
    )
    collision_prob = (
        machine.wireless.collision_probability if machine.wireless else 0.0
    )
    energy = EnergyModel().compute(config, stats, cycles)
    merged_hist = Histogram("memory_latency")
    for core in cores:
        merged_hist.merge(core.result.latency_hist)

    return SimulationResult(
        app=app,
        config=config,
        cycles=cycles,
        instructions=stats.get_counter("core.total.instructions"),
        memory_stall_cycles=sum(c.result.memory_stall_cycles for c in cores),
        sync_stall_cycles=sum(c.result.sync_stall_cycles for c in cores),
        load_latency_total=sum(c.result.load_latency.total for c in cores),
        store_latency_total=sum(c.result.store_latency.total for c in cores),
        read_misses=stats.get_counter("l1.total.read_misses"),
        write_misses=stats.get_counter("l1.total.write_misses"),
        wireless_writes=stats.get_counter("l1.total.wireless_writes"),
        sharer_histogram=dict(zip(sharer_hist.labels(), sharer_hist.counts)),
        hop_histogram=dict(zip(hop_hist.labels(), hop_hist.counts)),
        collision_probability=collision_prob,
        energy=energy,
        stats_counters=stats.counters(),
        latency_histogram=merged_hist.to_dict(),
    )


def run_app(
    app,
    config: SystemConfig,
    memops_per_core: Optional[int] = None,
    trace_seed: int = 0,
    check: bool = True,
    machine_sink: Optional[List] = None,
) -> SimulationResult:
    """Run one application to completion on one machine.

    ``machine_sink``, if given, receives the :class:`Manycore` instance so
    callers that need post-run access to live machine state (the trace CLI
    exporting an observability capture) can retrieve it without changing
    the return type.
    """
    profile = _resolve_profile(app)
    memops = memops_per_core if memops_per_core is not None else DEFAULT_MEMOPS
    machine = Manycore(config)
    if machine_sink is not None:
        machine_sink.append(machine)
    barrier = PhaseBarrier(config.num_cores)
    traces = build_traces(profile, config.num_cores, memops, trace_seed)

    cores: List[Core] = []
    finished = {"count": 0}

    def on_finish(_core: Core) -> None:
        finished["count"] += 1

    for node in range(config.num_cores):
        core = Core(
            machine.sim, node, machine.caches[node], config, machine.stats, barrier
        )
        cores.append(core)
        core.run_trace(traces[node], on_finish)

    budget = MAX_EVENTS_PER_MEMOP * memops * config.num_cores
    machine.run(max_events=budget)
    if finished["count"] != config.num_cores:
        stuck = [c.node for c in cores if not c.finished]
        raise SimulationError(
            f"{profile.name}: cores {stuck} did not finish "
            f"(deadlock or lost wakeup at cycle {machine.sim.now})"
        )
    if check:
        machine.check_coherence()

    return harvest(machine, cores, config, profile.name)


def run_pair(
    app,
    num_cores: int = 64,
    memops_per_core: Optional[int] = None,
    trace_seed: int = 0,
    max_wired_sharers: int = 3,
    seed: int = 42,
) -> Tuple[SimulationResult, SimulationResult]:
    """Run the same traces on Baseline and WiDir; returns (baseline, widir)."""
    base = run_app(
        app,
        baseline_config(num_cores=num_cores, seed=seed),
        memops_per_core,
        trace_seed,
    )
    widir = run_app(
        app,
        widir_config(
            num_cores=num_cores, max_wired_sharers=max_wired_sharers, seed=seed
        ),
        memops_per_core,
        trace_seed,
    )
    return base, widir


def scaled_config(config: SystemConfig, num_cores: int) -> SystemConfig:
    """The same machine at a different core count (Figure 10 sweeps)."""
    return replace(config, num_cores=num_cores)
