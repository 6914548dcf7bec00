"""One benchmark pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass with ``PYTHONPATH`` pointing
at the checkout's ``src`` and every ``REPRO_*`` variable removed, so each
pass pays the cold costs a user pays on every ``repro`` invocation. It
prints one JSON record as its last line of standard output.

Modes:

* ``full``   -- set up, simulate, check; timings for the end-to-end metrics.
* ``setup``  -- only the set-up stage, for extra ``setup_s`` samples.
* ``traced`` -- like ``full`` with :mod:`spans` installed; per-layer metrics.

``full`` and ``setup`` passes also time :mod:`hostspeed` reference slices
between their timed sections (before a simulation when one is due, and at
the end) and record them as ``host_slices``; ``wall_s`` leaves them out.

Usage: python3 perfbench/workload.py --workload pair-radiosity --seed 0
       --mode full --t0 <CLOCK_MONOTONIC at spawn>

``--seed`` is the trace seed of this pass. Scratch files (the figsuite
cache, span outlines) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time

from hostspeed import HostClock

CLOCK = time.CLOCK_MONOTONIC
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def now() -> float:
    # A system-wide clock, so the parent's spawn time and this process's
    # timestamps are comparable.
    return time.clock_gettime(CLOCK)


#: Pair workloads: the app, on 64 cores x 2500 references per core (the
#: BENCH_CORES / BENCH_MEMOPS defaults of benchmarks/bench_config.py).
#: Only radiosity is declared: host times on the shared 2-vCPU machine
#: need runs of about a minute to agree, and the time budget for all runs
#: leaves room for two such workloads (see README.md, "Noise").
PAIRS = {
    "pair-radiosity": "radiosity",
}
PAIR_CORES = 64
PAIR_MEMOPS = 2500

#: figsuite: Table IV, Figs 5-10 and Tables V-VI on three apps no pair
#: uses, 64-core base machine, 400 references per core.
FIG_APPS = ("ocean-nc", "barnes", "water-spa")
FIG_CORES = 64
FIG_MEMOPS = 400

WORKLOADS = tuple(PAIRS) + ("figsuite",)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mpki_rel_err(mpki: float, paper_mpki: float) -> float:
    return abs(mpki - paper_mpki) / paper_mpki


class Runs:
    """Runs ``run_app`` one simulation at a time and keeps the evidence:
    attempts, failures, host seconds inside ``run_app``, the results and
    the event kernel each machine ran. With a ``clock``, a reference slice
    precedes a simulation when one is due."""

    def __init__(self, run_app, tracer=None, clock=None):
        from repro.engine.errors import ReproError

        self._run_app = run_app
        self._error = ReproError
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.sim_s = 0.0
        self.results = []
        self.kernels = []

    def __call__(self, app, config, memops, trace_seed):
        from spans import MachineSink

        if self.clock is not None:
            self.clock.sample_if_due()
        self.attempted += 1
        sink = MachineSink(self.tracer)
        started = time.perf_counter()
        try:
            result = self._run_app(app, config, memops, trace_seed, check=True,
                                   machine_sink=sink)
        except self._error as exc:
            self.failed += 1
            self.errors.append(f"{app}/{config.protocol}/{config.num_cores}c: {exc}")
            raise
        finally:
            self.sim_s += time.perf_counter() - started
            self.kernels.extend(sink.kernels)
        self.results.append(result)
        return result

    @property
    def refs(self) -> int:
        return sum(r.stats_counters["l1.total.accesses"] for r in self.results)


def run_pair(app, seed, runs, tracer, cores=PAIR_CORES, memops=PAIR_MEMOPS):
    """Stages of a pair pass: yields the ready time, then the sim metrics."""
    from repro.config.presets import baseline_config, widir_config
    from repro.workloads.generator import build_traces
    from repro.workloads.profiles import APP_PROFILES

    profile = APP_PROFILES[app]
    configs = (baseline_config(num_cores=cores), widir_config(num_cores=cores))
    if tracer is not None:
        tracer.start()
    build_traces(profile, cores, memops, seed)
    ready = now()
    yield ready
    for config in configs:
        runs(app, config, memops, seed)
    if tracer is not None:
        tracer.stop()
    base, widir = runs.results
    yield {
        "sim_cycles": widir.cycles,
        "widir_speedup": base.cycles / widir.cycles,
        "mpki": base.mpki,
        "paper_mpki": profile.paper_mpki,
        "mpki_rel_err": mpki_rel_err(base.mpki, profile.paper_mpki),
        "labels": ["baseline", "widir"],
        "reference_runs": [widir],
    }


def run_figsuite(seed, runs, tracer, cache_dir):
    """Stages of a figsuite pass: yields the ready time, then the sim metrics."""
    import repro.harness.executor as executor_module
    from repro.config.presets import widir_config
    from repro.harness import figures
    from repro.harness.executor import Executor
    from repro.workloads.profiles import APP_PROFILES

    executor = Executor(workers=1, cache_dir=cache_dir, use_cache=True, store=None)
    ready = now()
    yield ready

    # The figure functions hard-wire trace seed 0; the benchmark's seed is
    # added here so the whole suite is re-drawn per seed. Keys stay those of
    # seed 0, which is harmless: the cache starts empty in every pass.
    def seeded_run_app(app, config, memops, trace_seed):
        return runs(app, config, memops, trace_seed + seed)

    executor_module.run_app = seeded_run_app
    if tracer is not None:
        executor.map_runs = tracer.wrap(
            "executor.map_runs", "harness", executor.map_runs, coarse=True
        )
        tracer.start()
    kw = dict(apps=FIG_APPS, memops=FIG_MEMOPS, executor=executor)
    out = [
        figures.table4_mpki_characterization(num_cores=FIG_CORES, **kw),
        figures.figure5_sharer_histogram(num_cores=FIG_CORES, **kw),
        figures.figure6_mpki(num_cores=FIG_CORES, **kw),
        figures.figure7_memory_latency(num_cores=FIG_CORES, **kw),
        figures.table5_hop_distribution(num_cores=FIG_CORES, **kw),
    ]
    fig8 = figures.figure8_execution_time(core_counts=(FIG_CORES, 32, 16), **kw)
    out += list(fig8.values())
    out += [
        figures.figure9_energy(num_cores=FIG_CORES, **kw),
        figures.figure10_scalability(core_counts=(4, 8, 16, 32, FIG_CORES), **kw),
        figures.table6_sensitivity(num_cores=FIG_CORES, **kw),
    ]
    if tracer is not None:
        tracer.stop()

    partial = [f.name for f in out if f.partial]
    if partial:
        raise RuntimeError(f"figures rendered partially: {partial}")
    stats = executor.stats
    if stats.executed != runs.attempted or (
        stats.executed + stats.cache_hits + stats.deduplicated != stats.requested
    ):
        raise RuntimeError(f"executor accounting does not add up: {stats.as_dict()}")
    widir64 = widir_config(num_cores=FIG_CORES)
    reference = [r for r in runs.results if r.config == widir64]
    if sorted(r.app for r in reference) != sorted(FIG_APPS):
        raise RuntimeError("expected one 64-core WiDir run per figsuite app")
    table4 = {row[0]: row[1] for row in out[0].rows}
    yield {
        "sim_cycles": geomean([r.cycles for r in reference]),
        "widir_speedup": 1.0 / fig8[FIG_CORES].rows[-1][-1],
        "mpki": sum(table4.values()) / len(table4),
        "paper_mpki": sum(APP_PROFILES[a].paper_mpki for a in FIG_APPS) / len(FIG_APPS),
        "mpki_rel_err": sum(
            mpki_rel_err(table4[a], APP_PROFILES[a].paper_mpki) for a in FIG_APPS
        ) / len(FIG_APPS),
        "labels": [
            f"{i:02d}:{r.app}:{r.config.protocol}:{r.config.num_cores}c:"
            f"mws{r.config.directory.max_wired_sharers}"
            for i, r in enumerate(runs.results)
        ],
        "figures_digest": hashlib.sha256(
            "\n".join(f.text for f in out).encode()
        ).hexdigest(),
        "harness": {
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "requested": stats.requested,
        },
        "reference_runs": reference,
    }


def layer_metrics(tracer, runs, sim) -> dict:
    """Per-layer metrics of a traced pass (names as in BENCHMARK.json)."""
    from repro.stats.collectors import Histogram
    from repro.stats.report import percentile_summary

    layers = tracer.layer_self_s()
    results = runs.results
    counters = [r.stats_counters for r in results]
    refs = runs.refs
    reference = sim["reference_runs"]
    latency = Histogram("memory_latency")
    for result in reference:
        latency.merge(Histogram.from_dict(result.latency_histogram))
    percentiles = percentile_summary(latency)
    probes = tracer.count("cache.load_probe") + tracer.count("cache.store_probe")
    probe_hits = tracer.count("cache.load_probe.hit") + tracer.count("cache.store_probe.hit")
    records = tracer.count("build_core_trace.records")
    events = tracer.callbacks()
    messages = sum(c.get("noc.messages", 0) for c in counters)
    harness = sim.get("harness", {})
    return {
        "workloads.synth_s": layers["workloads"],
        "workloads.records": records,
        "workloads.records_per_s": records / layers["workloads"] if layers["workloads"] else 0.0,
        "system.build_s": layers["system"],
        "engine.self_s": layers["engine"],
        "engine.events": events,
        "engine.schedules": tracer.count("sim.schedule") + tracer.count("sim.schedule_at"),
        "engine.events_per_memop": events / refs,
        "cpu.self_s": layers["cpu"],
        "cpu.callbacks": tracer.callbacks("cpu"),
        "cpu.latency_p50": percentiles["p50"],
        "cpu.latency_p99": percentiles["p99"],
        "cpu.mem_stall_frac": sum(r.memory_stall_fraction for r in reference) / len(reference),
        "mem.self_s": layers["mem"],
        "mem.lookups": tracer.count("cache.array.lookup"),
        "mem.lookups_per_access": tracer.count("cache.array.lookup") / refs,
        "mem.fetches": tracer.count("memctl.fetch_line"),
        "mem.writebacks": tracer.count("memctl.writeback_line"),
        "coherence.self_s": layers["coherence"],
        "coherence.check_s": layers["check"],
        "coherence.l1_probes": probes,
        "coherence.l1_probe_hit_ratio": probe_hits / probes,
        "coherence.l1_misses": sum(r.misses for r in results),
        "coherence.dir_msgs": tracer.count("directory.handle_message"),
        "coherence.frames": tracer.count("cache.handle_frame") + tracer.count("directory.handle_frame"),
        "coherence.nacks": sum(
            v for c in counters for k, v in c.items()
            if k.startswith("dir.") and k.endswith(".nacks")
        ),
        "noc.self_s": layers["noc"],
        "noc.sends": tracer.count("mesh.send"),
        "noc.multicasts": tracer.count("mesh.send_multicast"),
        "noc.avg_hops": sum(c.get("noc.total_hops", 0) for c in counters) / messages,
        "wireless.self_s": layers["wireless"],
        "wireless.transmits": tracer.count("wireless.transmit"),
        "wireless.tone_ops": tracer.count("tone.begin"),
        "wireless.writes": sum(r.wireless_writes for r in reference),
        "wireless.collision_prob": sum(r.collision_probability for r in reference) / len(reference),
        "stats.fold_s": layers["stats"],
        "harness.self_s": layers["harness"],
        "harness.executed": harness.get("executed", 0),
        "harness.cache_hits": harness.get("cache_hits", 0),
        "bench.self_s": layers["bench"],
        "trace.wall_s": tracer.wall_s,
    }


def instrument_synthesis(tracer):
    """Spans around trace synthesis, counting the records it produces."""
    import repro.harness.runner as runner
    import repro.workloads.generator as generator

    records = tracer.site("build_core_trace.records", "workloads")
    build_core_trace = generator.build_core_trace

    def counted(*args, **kwargs):
        chunk = build_core_trace(*args, **kwargs)
        records[0] += len(chunk.kinds)
        return chunk

    generator.build_core_trace = tracer.wrap("build_core_trace", "workloads", counted)
    # run_app and the benchmark both reach build_traces through these names.
    generator.build_traces = tracer.wrap(
        "build_traces", "workloads", generator.build_traces, coarse=True
    )
    runner.build_traces = generator.build_traces


def make_runs(traced: bool, clock=None):
    """A :class:`Runs` over ``run_app``, plus its tracer when ``traced``."""
    from repro.harness.runner import run_app

    if not traced:
        return Runs(run_app, clock=clock), None
    from spans import Tracer

    tracer = Tracer()
    instrument_synthesis(tracer)
    return Runs(tracer.wrap_run_app(run_app), tracer), tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("full", "setup", "traced"))
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import repro

    src = os.path.realpath(SRC)
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    from repro.engine.batch import set_batched_default

    set_batched_default(True)  # pinned: the cohort (batched) event kernel
    traced = args.mode == "traced"
    clock = None if traced else HostClock()
    runs, tracer = make_runs(traced, clock)
    cache_dir = os.path.join(OUT, f"cache-{os.getpid()}")
    if args.workload == "figsuite":
        shutil.rmtree(cache_dir, ignore_errors=True)
        stages = run_figsuite(args.seed, runs, tracer, cache_dir)
    else:
        stages = run_pair(PAIRS[args.workload], args.seed, runs, tracer)

    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        record["setup_s"] = next(stages) - args.t0
        if args.mode == "setup":
            clock.sample()
            print(json.dumps(dict(record, host_slices=clock.samples)))
            return 0
        try:
            sim = next(stages)
            from repro.traces.replay import result_digest

            record["digests"] = {
                label: result_digest(result)
                for label, result in zip(sim["labels"], runs.results)
            }
            if "figures_digest" in sim:
                record["digests"]["figures"] = sim["figures_digest"]
        except Exception as exc:  # any failure fails the pass, reported below
            record["error"] = f"{type(exc).__name__}: {exc}"
            runs.failed = max(runs.failed, 1)
            sim = None
        record["wall_s"] = now() - args.t0
        if clock is not None:
            record["wall_s"] -= clock.spent_s
            clock.sample()
            record["host_slices"] = clock.samples
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    record.update(
        attempted=max(runs.attempted, 1),
        failed=runs.failed,
        errors=runs.errors,
        sim_s=runs.sim_s,
        refs=runs.refs,
        kernel_batched=sorted(set(runs.kernels)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if sim is not None:
        record["sim"] = {
            k: v for k, v in sim.items() if k not in ("labels", "reference_runs")
        }
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, runs, sim)
            outline = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
            with open(outline, "w") as handle:
                json.dump(tracer.outline(), handle, indent=1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
