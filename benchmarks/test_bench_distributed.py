"""Distributed campaign scaling benchmark (ISSUE 7 acceptance gate).

Measures the wall-clock of one fixed 16-run campaign driven through
:func:`repro.harness.distributed.run_distributed` at 1, 2, and 4 workers,
cold-cache, and asserts the 4-worker sweep beats the 1-worker sweep by at
least **3.5x**.

Workload choice: the scaling lanes run the ``sleep`` runner (every run is
a fixed ``time.sleep``), NOT real simulations. This is deliberate: the
quantity under test is the *orchestration layer* — shard scheduling, RPC
round-trips, work stealing, journal writes — and a sleep workload makes
per-run cost exactly known and machine-independent, so the measured
speedup isolates coordinator overhead instead of re-measuring how many
CPU cores the benchmark box happens to have (CI runners and the dev box
both have too few cores for a 4-way CPU-bound speedup; sims are
process-parallel and would serialize on the cores, hiding orchestration
regressions behind CPU contention). Sleep-mode payloads are a pure
function of the run key, so digest identity across worker counts is
asserted too — the merge order provably cannot leak into results.

Real simulations keep their own teeth here: a small sim-mode lane asserts
the distributed digest is byte-identical to a single-box
:func:`~repro.harness.campaign.run_campaign` of the same spec.

Results land under ``"distributed"`` in BENCH_harness.json; CI re-runs
this file and fails on >20% drift of ``speedup_2x``/``speedup_4x``
against the committed baseline.
"""

from repro.harness.campaign import CampaignSpec, run_campaign
from repro.harness.distributed import run_distributed
from repro.harness.executor import Executor
from repro.harness.supervisor import RetryPolicy, WorkerSupervisor

#: 8 apps x (Baseline, WiDir) = 16 runs — divides evenly across 4 workers.
_SCALING_APPS = (
    "radiosity",
    "ocean-nc",
    "barnes",
    "water-spa",
    "blackscholes",
    "ferret",
    "fft",
    "volrend",
)
_SLEEP_SECONDS = 0.25
_WORKER_COUNTS = (1, 2, 4)
_SPEEDUP_FLOOR = 3.5


def _spec(name, apps, memops):
    return CampaignSpec(
        name=name, kind="protocols", apps=apps, cores=(16,), memops=memops
    )


def test_bench_distributed_scaling(tmp_path, distributed_metrics):
    spec_apps = _SCALING_APPS
    digests = {}
    bars = {}
    stolen = {}
    for workers in _WORKER_COUNTS:
        report = run_distributed(
            tmp_path / f"w{workers}",
            _spec("bench-dist", spec_apps, 2500),
            workers=workers,
            executor=Executor(
                workers=1, cache_dir=tmp_path / f"cache{workers}",
                use_cache=True,
            ),
            runner="sleep",
            runner_seconds=_SLEEP_SECONDS,
            timeout=120,
        )
        assert report.ok, report.failed
        assert report.completed == len(spec_apps) * 2
        digests[workers] = report.digest
        bars[workers] = report.wall_seconds
        stolen[workers] = report.stolen

    # Merge order provably does not leak into results: every worker count
    # converges to the same digest.
    assert len(set(digests.values())) == 1

    speedup_4x = bars[1] / bars[4]
    print(
        "\ndistributed scaling (16 runs x "
        f"{_SLEEP_SECONDS}s, cold cache):"
    )
    for workers in _WORKER_COUNTS:
        print(
            f"  workers={workers}: {bars[workers]:6.2f}s  "
            f"({bars[1] / bars[workers]:4.2f}x, {stolen[workers]} stolen)"
        )
    assert speedup_4x >= _SPEEDUP_FLOOR, (
        f"4-worker sweep only {speedup_4x:.2f}x vs 1 worker "
        f"(floor {_SPEEDUP_FLOOR}x)"
    )

    distributed_metrics.update(
        {
            "mode": "sleep",
            "runs": len(spec_apps) * 2,
            "runner_seconds": _SLEEP_SECONDS,
            "workers_1_seconds": round(bars[1], 3),
            "workers_2_seconds": round(bars[2], 3),
            "workers_4_seconds": round(bars[4], 3),
            "speedup_2x": round(bars[1] / bars[2], 2),
            "speedup_4x": round(speedup_4x, 2),
            "stolen_4x": stolen[4],
            "digest_identical": True,
        }
    )


def test_bench_distributed_sim_digest_matches_single_box(
    tmp_path, distributed_metrics
):
    """Real simulations: 2-worker distributed == single box, byte for byte."""
    spec = _spec("bench-dist-sim", ("volrend",), 400)
    single = run_campaign(
        tmp_path / "single", spec,
        supervisor=WorkerSupervisor(
            workers=1, retry=RetryPolicy(max_attempts=2, unit=0.0)
        ),
        executor=Executor(
            workers=1, cache_dir=tmp_path / "cache-single", use_cache=True
        ),
    )
    report = run_distributed(
        tmp_path / "dist", spec,
        workers=2,
        executor=Executor(
            workers=1, cache_dir=tmp_path / "cache-dist", use_cache=True
        ),
        timeout=120,
    )
    assert report.ok
    assert report.digest == single.digest
    assert (tmp_path / "dist" / "results.json").read_bytes() == (
        tmp_path / "single" / "results.json"
    ).read_bytes()
    distributed_metrics["sim_digest_identical"] = True
