"""Benchmark of record for the WiDir reproduction.

Runs one workload through the simulator's public entry points
(``build_traces``, ``run_app``, and the figure functions over an
``Executor``), checks every result, and prints the metrics named in
``BENCHMARK.json``. Each pass runs in a fresh interpreter (``workload.py``),
one at a time; see ``perfbench/README.md`` for the metrics and workloads.

    python3 perfbench/run.py --workload pair-radiosity --seed 0 --seconds 55 --trace 0

A run's ``--seed`` picks the trace seeds of its passes (``trace_seeds``):
a pair run simulates ``PAIR_TRACE_SEEDS`` different trace draws, so its sim
metrics are averaged over them rather than resting on one draw.

``--trace 0`` measures the end-to-end metrics: full passes, cycling
through the run's trace seeds, as many as fit in ``--seconds`` but at
least one per trace seed; then set-up-only passes until there are
``SETUP_SAMPLES`` set-up times. Host metrics are medians over the passes
of host times scaled to the reference host by ``host_scale``, from the
median of every reference slice of the run (``hostspeed``).
``--trace 1`` runs one untraced and one traced pass on the first trace
seed and reports the per-layer metrics. The last line of standard output
is the JSON result; the pass records are kept in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from hostspeed import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-up times per --trace 0 run; the median is reported.
SETUP_SAMPLES = 5
#: Trace draws per pair run. A 55-s pair run makes about eight passes,
#: so each draw is simulated twice and its digests are compared. figsuite
#: already spans 51 simulations on three apps in one pass of about 20 s,
#: so it keeps one.
PAIR_TRACE_SEEDS = 4
#: Wall-clock cap for one run; a pass still going when it is reached is
#: killed and the run fails.
RUN_CAP_S = 170.0


def declared() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class PassFailed(Exception):
    """A pass produced no record (crash, timeout or unreadable output)."""


def pinned_env() -> dict:
    """The caller's environment minus every REPRO_* knob, with ``src`` on
    the path: scale, seed, kernel and executor are set by the benchmark.
    Bytecode is cached as in an installed copy, whatever the caller set; the
    first pass in a fresh checkout compiles it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    return env


def trace_seeds(workload: str, seed: int) -> list:
    """The trace seeds of a run with ``--seed seed``; disjoint across seeds."""
    if workload == "figsuite":
        return [seed]
    return [seed * PAIR_TRACE_SEEDS + i for i in range(PAIR_TRACE_SEEDS)]


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One pass on trace seed ``seed`` in a fresh interpreter; returns its
    JSON record."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise PassFailed(f"{mode} pass not started: run cap of {RUN_CAP_S:.0f}s reached")
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            command + ["--t0", repr(started)],
            cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
            timeout=remaining, text=True,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise PassFailed(f"{mode} pass timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise PassFailed(f"{mode} pass printed no record") from None


def check_passes(records: list) -> int:
    """Failed simulations across ``records``. Besides the failures a pass
    reports, a run whose digest differs from that of the first complete
    pass on the same trace seed fails, and so does every run of a pass on
    the wrong event kernel."""
    references = {}
    for record in records:
        if "digests" in record:
            references.setdefault(record["seed"], record["digests"])
    failed = 0
    for record in records:
        bad = record["failed"]
        digests = record.get("digests")
        if digests is not None:
            reference = references[record["seed"]]
            bad += sum(
                1 for label in set(reference) | set(digests)
                if reference.get(label) != digests.get(label)
            )
        if record.get("kernel_batched") != [True]:
            bad = record["attempted"]
        failed += min(bad, record["attempted"])
    return failed


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def host_scale(records: list) -> float:
    """Factor from the run's host seconds to reference-host seconds, from
    the median of the reference slices of all its passes."""
    return NOMINAL_S / statistics.median(t for r in records for t in r["host_slices"])


def sim_by_seed(records: list, seeds: list) -> list:
    """The sim metrics of the first complete pass on each trace seed."""
    sims = {}
    for record in records:
        if "sim" in record:
            sims.setdefault(record["seed"], record["sim"])
    if set(sims) != set(seeds):
        raise PassFailed("; ".join(r["error"] for r in records if r.get("error"))
                         or f"no complete pass on trace seeds {sorted(set(seeds) - set(sims))}")
    return [sims[s] for s in seeds]


def end_to_end(full: list, setups: list, seeds: list, scale: float) -> dict:
    """End-to-end metric values of a --trace 0 run from its pass records:
    host metrics are medians over the complete passes, times multiplied by
    ``scale`` (``setups`` are scaled already); sim metrics combine the run's
    trace seeds (geomean of cycles and speedups, mean MPKI error)."""
    sims = sim_by_seed(full, seeds)
    ok = [r for r in full if "sim" in r]
    return {
        "memops_per_s": statistics.median(r["refs"] / r["sim_s"] for r in ok) / scale,
        "wall_s": statistics.median(r["wall_s"] for r in ok) * scale,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "sim_cycles": geomean(s["sim_cycles"] for s in sims),
        "widir_speedup": geomean(s["widir_speedup"] for s in sims),
        "mpki_rel_err": statistics.fmean(s["mpki_rel_err"] for s in sims),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metric values of a --trace 1 run from its two passes."""
    if "layers" not in traced or "wall_s" not in untraced:
        raise PassFailed("; ".join(r.get("error", "") for r in (untraced, traced)))
    values = dict(traced["layers"])
    values["engine.batched"] = int(traced["kernel_batched"] == [True])
    values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
    return values


def measure(workload: str, seeds: list, seconds: int, trace: int, deadline: float):
    """Run the passes; returns (pass records, set-up records, metric values)."""
    if trace:
        records = [run_pass(workload, seeds[0], mode, deadline) for mode in ("full", "traced")]
        return records, [], per_layer(*records)
    started = time.monotonic()
    full = []
    while True:
        full.append(run_pass(workload, seeds[len(full) % len(seeds)], "full", deadline))
        elapsed = time.monotonic() - started
        # Every trace seed gets a pass; after that, start another only if
        # one more of average length still ends within --seconds.
        if len(full) >= len(seeds) and elapsed * (len(full) + 1) / len(full) > seconds:
            break
    extra = []
    while len(full) + len(extra) < SETUP_SAMPLES:
        extra.append(run_pass(workload, seeds[0], "setup", deadline))
    scale = host_scale(full + extra)
    setups = [r["setup_s"] * scale for r in full + extra]
    return full, extra, end_to_end(full, setups, seeds, scale)


def main(argv=None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the trace seeds; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_CAP_S
    seeds = trace_seeds(args.workload, args.seed)
    try:
        records, setup_records, values = measure(
            args.workload, seeds, args.seconds, args.trace, deadline
        )
    except PassFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} are not "
              "both declared and measured", file=sys.stderr)
        return 1

    failed = check_passes(records)
    attempted = sum(r["attempted"] for r in records)
    for record in records:
        for error in record.get("errors", []) + [record.get("error")]:
            if error:
                print(f"FAILED {record['mode']} pass: {error}")
    for name, unit in units.items():
        print(f"{args.workload:18s} {name:30s} {values[name]:>16.6g} {unit}")
    measured = seeds[:1] if args.trace else seeds
    for seed, sim in zip(measured, sim_by_seed(records, measured)):
        print(
            f"{args.workload:18s} trace seed {seed}: widir_speedup "
            f"{sim['widir_speedup']:.4f} beside mpki_rel_err {sim['mpki_rel_err']:.4f} "
            f"(Baseline L1 MPKI {sim['mpki']:.3f} vs Table IV {sim['paper_mpki']:.3f})"
        )
    print(
        f"{args.workload:18s} accuracy: Table IV MPKI is the repo's only per-app "
        "paper reference, so widir_speedup is otherwise unvalidated against the paper."
    )
    print(f"{args.workload:18s} passes {len(records)}, event kernel batched="
          f"{sorted({k for r in records for k in r['kernel_batched']})}")
    if not args.trace:
        raw = [r for r in records if "sim" in r]
        print(
            f"{args.workload:18s} unscaled: memops_per_s "
            f"{statistics.median(r['refs'] / r['sim_s'] for r in raw):.6g} refs/s, wall_s "
            f"{statistics.median(r['wall_s'] for r in raw):.6g} s; host_scale "
            f"{host_scale(records + setup_records):.4f}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump({"result": result, "trace_seeds": measured,
                   "passes": records, "setup_passes": setup_records}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
