"""Simulation-kernel benchmarks that time real simulator code.

The other benchmarks in this directory regenerate paper figures; this module
times two pieces of the simulator itself and records them in
``BENCH_harness.json`` under ``kernel``:

* ``test_bench_kernel_cow_snapshot_scaling`` times
  :meth:`repro.mem.line_data.LineData.snapshot` against a plain ``dict``
  copy on a large line, pinning the O(1) copy-on-write claim.
* ``test_bench_kernel_end_to_end_fig10`` times one real 64-core
  Baseline-vs-WiDir radiosity pair through
  :func:`repro.harness.runner.run_app` and asserts it is deterministic.

Neither is the performance number of record: that is ``perfbench/``, run
as declared in ``BENCHMARK.json``.
"""

import time

from bench_config import BENCH_CORES, KERNEL_PAIR_MEMOPS

from repro.mem.line_data import LineData

_ROUNDS = 5


def test_bench_kernel_cow_snapshot_scaling(kernel_metrics):
    """``LineData.snapshot()`` is O(1) in line size; ``dict`` copy is O(n).

    At the protocol's 16-word lines the two are comparable per call; the
    snapshot wins because one view replaces a copy at payload build and
    another at install. This test pins the asymptotic claim directly with
    a large line.
    """
    big_words = {w: w * 7 for w in range(4096)}
    big_cow = LineData(big_words)
    n = 2_000

    copy_best = snap_best = float("inf")
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        for _i in range(n):
            dict(big_words)
        copy_best = min(copy_best, time.perf_counter() - start)

        start = time.perf_counter()
        snapshot = big_cow.snapshot
        for _i in range(n):
            snapshot()
        snap_best = min(snap_best, time.perf_counter() - start)

    speedup = copy_best / snap_best
    kernel_metrics["cow_snapshot_speedup_4096w"] = round(speedup, 2)
    print(f"\nCOW snapshot vs dict copy (4096-word line): {speedup:.2f}x")
    assert speedup > 2.0  # conservatively below the measured ~2 orders

    # Semantics: a snapshot never observes writes through the original.
    cow = LineData({0: 0, 1: 1})
    view = cow.snapshot()
    cow[0] = 999
    assert view[0] == 0 and cow[0] == 999


def test_bench_kernel_end_to_end_fig10(kernel_metrics):
    """One real fig10-style point: 64-core radiosity, Baseline vs WiDir.

    Runs in-process through :func:`repro.harness.runner.run_app` (no
    executor, no result cache) so the wall seconds recorded here track the
    raw simulation kernel across PRs. Also locks determinism: repeating the
    WiDir run must reproduce the cycle count bit-for-bit despite all the
    message/frame pooling.
    """
    from repro.config.presets import baseline_config, widir_config
    from repro.harness.runner import run_app

    # The tracked fig10 point (bench_config: 64-core radiosity pair).
    cores, memops = BENCH_CORES, KERNEL_PAIR_MEMOPS

    # Warm the trace-synthesis memo so the timing below is pure simulation.
    run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)

    start = time.perf_counter()
    base = run_app("radiosity", baseline_config(num_cores=cores), memops, trace_seed=7)
    widir = run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)
    pair_seconds = time.perf_counter() - start

    again = run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)
    assert again.cycles == widir.cycles  # determinism under all the pooling
    assert widir.cycles < base.cycles  # radiosity is a WiDir winner (fig10)

    kernel_metrics["fig10_pair_seconds"] = round(pair_seconds, 3)
    kernel_metrics["fig10_widir_cycles"] = widir.cycles
    kernel_metrics["fig10_baseline_cycles"] = base.cycles
    print(
        f"\nfig10 64-core pair: {pair_seconds:.3f}s wall, "
        f"baseline {base.cycles:,} cy vs widir {widir.cycles:,} cy"
    )
