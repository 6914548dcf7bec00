"""Self-tests of the benchmark: names, span accounting, digest neutrality.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

import repro.harness.runner as runner
import repro.workloads.generator as generator
import run
import workload
from hostspeed import NOMINAL_S, HostClock, reference_slice
from spans import LAYERS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_CORES = 16
TINY_MEMOPS = 200


@pytest.fixture
def restore_modules(monkeypatch):
    """Undo the tracer's rebinding of module-level names after a test."""
    monkeypatch.setattr(generator, "build_traces", generator.build_traces)
    monkeypatch.setattr(generator, "build_core_trace", generator.build_core_trace)
    monkeypatch.setattr(runner, "build_traces", runner.build_traces)


def tiny_pair(traced, seed=0):
    runs, tracer = workload.make_runs(traced)
    stages = workload.run_pair(
        "radiosity", seed, runs, tracer, cores=TINY_CORES, memops=TINY_MEMOPS
    )
    next(stages)
    sim = next(stages)
    return runs, tracer, sim


def declared_names(section):
    return [m["name"] for m in run.declared()[section]]


def test_declared_names_are_valid_and_workloads_exist():
    spec = run.declared()
    for section in ("end_to_end", "per_layer", "workloads"):
        names = [m["name"] for m in spec[section]]
        assert len(names) == len(set(names)), section
        assert all(NAME.fullmatch(n) for n in names), section
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)


def test_end_to_end_emits_every_declared_metric():
    record = {"seed": 3, "refs": 1000, "sim_s": 0.5, "wall_s": 2.0, "peak_rss_mb": 60.0,
              "sim": {"sim_cycles": 10, "widir_speedup": 1.0, "mpki_rel_err": 0.5}}
    other = dict(record, seed=4,
                 sim={"sim_cycles": 40, "widir_speedup": 4.0, "mpki_rel_err": 1.5})
    crashed = {"seed": 4, "failed": 1, "error": "x"}
    values = run.end_to_end([record, crashed, other], [0.1, 0.2, 0.3], [3, 4], 1.0)
    assert sorted(values) == sorted(declared_names("end_to_end"))
    assert values["memops_per_s"] == 2000.0 and values["setup_s"] == 0.2
    assert values["sim_cycles"] == pytest.approx(20.0)
    assert values["widir_speedup"] == pytest.approx(2.0)
    assert values["mpki_rel_err"] == 1.0
    with pytest.raises(run.PassFailed):
        run.end_to_end([record, crashed], [0.1], [3, 4], 1.0)
    # On a host twice as fast as the reference host, times count double.
    values = run.end_to_end([record], [0.1], [3], 2.0)
    assert values["memops_per_s"] == 1000.0 and values["wall_s"] == 4.0


def test_host_scale_is_the_median_over_every_slice_of_the_run():
    passes = [{"host_slices": [NOMINAL_S / 2, NOMINAL_S * 3]},
              {"host_slices": [NOMINAL_S / 2]}, {"host_slices": [NOMINAL_S]}]
    assert run.host_scale(passes) == pytest.approx(4 / 3)


def test_host_clock_takes_due_slices_of_fixed_work():
    assert reference_slice(2000) == reference_slice(2000) > 0
    clock = HostClock()
    clock.sample_if_due()
    clock.sample_if_due()
    assert len(clock.samples) == 1 and clock.spent_s == clock.samples[0]
    clock.sample()
    assert len(clock.samples) == 2


def test_trace_seeds_are_disjoint_across_run_seeds():
    for name in workload.WORKLOADS:
        seen = [s for seed in range(10) for s in run.trace_seeds(name, seed)]
        assert len(seen) == len(set(seen)), name
    assert run.trace_seeds("figsuite", 5) == [5]
    assert len(run.trace_seeds("pair-radiosity", 5)) == run.PAIR_TRACE_SEEDS


def test_traced_pass_emits_every_declared_layer_metric(restore_modules):
    runs, tracer, sim = tiny_pair(traced=True)
    traced = {"layers": workload.layer_metrics(tracer, runs, sim),
              "kernel_batched": sorted(set(runs.kernels)), "wall_s": 2.0}
    values = run.per_layer({"wall_s": 1.0}, traced)
    assert sorted(values) == sorted(declared_names("per_layer"))
    assert values["engine.batched"] == 1 and values["trace.overhead"] == 2.0


def test_layer_self_times_sum_to_traced_wall_time(restore_modules):
    _runs, tracer, _sim = tiny_pair(traced=True)
    layers = tracer.layer_self_s()
    assert set(layers) == set(LAYERS)
    assert sum(layers.values()) == pytest.approx(tracer.wall_s, rel=1e-9, abs=1e-9)
    assert min(layers.values()) >= -1e-6
    # The simulation itself is attributed, not left in the benchmark bucket.
    for layer in ("engine", "cpu", "coherence", "noc", "mem", "workloads"):
        assert layers[layer] > 0.0, layer
    assert layers["bench"] < 0.05 * tracer.wall_s


def test_traced_and_untraced_digests_are_identical(restore_modules):
    from repro.traces.replay import result_digest

    traced, tracer, _ = tiny_pair(traced=True)
    untraced, _, _ = tiny_pair(traced=False)
    assert tracer.callbacks() > 0 and tracer.count("mesh.send") > 0
    assert [result_digest(r) for r in traced.results] == [
        result_digest(r) for r in untraced.results
    ]
    assert traced.failed == untraced.failed == 0


def test_digest_disagreement_counts_as_failure():
    ok = {"seed": 0, "attempted": 2, "failed": 0,
          "digests": {"baseline": "a", "widir": "b"}, "kernel_batched": [True]}
    differs = dict(ok, digests={"baseline": "a", "widir": "c"})
    crashed = {"seed": 0, "attempted": 1, "failed": 1, "kernel_batched": [True]}
    assert run.check_passes([ok, ok]) == 0
    assert run.check_passes([ok, differs]) == 1
    assert run.check_passes([crashed, ok, differs]) == 1 + 1
    assert run.check_passes([ok, dict(ok, kernel_batched=[False])]) == 2
    # Passes on another trace seed are compared only among themselves.
    assert run.check_passes([ok, dict(differs, seed=1), dict(differs, seed=1)]) == 0


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair-radiosity",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
