"""Replay identity, snapshot/resume, and sharding contracts.

Three locks, in increasing strength:

1. **Live ≡ replay** — recording an application's reference stream and
   replaying it continuously produces a result digest byte-identical to
   a live ``run_app`` of the same (app, cores, memops, seed), under
   every registered protocol backend. The digests are
   additionally pinned as goldens, so the *recorded stream itself*
   cannot drift without a diff here.

2. **Snapshot/resume ≡ uninterrupted** — segmented replay is a pure
   function of (trace, config, interval); killing the process after any
   durable snapshot (simulated in-process, and with a real ``SIGKILL``
   in a subprocess) and resuming yields the same final digest as the
   never-interrupted segmented run.

3. **Window merge** — a trace cut into barrier-safe windows, replayed
   cold and merged, is deterministic and order-invariant; a single
   window spanning the whole trace is digest-identical to continuous
   replay.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.coherence.backend import backend_names
from repro.config.presets import protocol_config
from repro.harness.executor import Executor, ExperimentPlan, RunRequest, run_key
from repro.harness.runner import run_app
from repro.traces import (
    TraceFormatError,
    TraceReader,
    merge_window_results,
    plan_windows,
    record_app_trace,
    replay_trace,
    replay_window,
    result_digest,
)

APP = "radix"
CORES = 8
MEMOPS = 300
TRACE_SEED = 3
SEED = 42
CHUNK_RECORDS = 64

#: Continuous-replay digests per backend, equal to the live ``run_app``
#: digest of the same workload by construction (asserted below).
#: Regenerate deliberately with
#: ``python -m tests.test_traces_replay`` after an intentional protocol
#: or generator change; an unexplained diff means the recorded stream or
#: the replay path drifted from the live machine.
GOLDEN_REPLAY_DIGESTS = {
    "baseline": "957c62a1c6749ee2959762682d33faea3988afdb58468958cf60df575ad86228",
    "hybrid_update": "45b11df862d44ce949b38de4efc54b75654d2b55e8e615d7bcd591e8bb8702f1",
    "phase_priority": "33fcc214d72e1aa245aadd44776157f021e11027265f85a990885358fe0f7529",
    "widir": "9fc7f1e9380f4e6ad8d4b9bd9c8d0e87d6c392900a6da3b35edd46a3f8a9d867",
}


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "radix.wtr"
    record_app_trace(
        path, APP, CORES, MEMOPS, trace_seed=TRACE_SEED, chunk_records=CHUNK_RECORDS
    )
    return path


def _config(protocol: str):
    return protocol_config(protocol, num_cores=CORES, seed=SEED)


# ------------------------------------------------- live ≡ replay goldens


@pytest.mark.parametrize("protocol", backend_names())
def test_replay_matches_live_run(trace_path, protocol):
    config = _config(protocol)

    live_digest = result_digest(run_app(APP, config, MEMOPS, TRACE_SEED))
    replay_digest = result_digest(replay_trace(trace_path, config))
    assert replay_digest == live_digest
    assert replay_digest == GOLDEN_REPLAY_DIGESTS[protocol]


def test_replay_rejects_core_count_mismatch(trace_path):
    with pytest.raises(TraceFormatError):
        replay_trace(trace_path, protocol_config("widir", num_cores=4, seed=SEED))


def test_replay_rejects_wrong_trace_id(trace_path):
    with pytest.raises(TraceFormatError):
        replay_trace(trace_path, _config("widir"), expect_trace_id="0" * 16)


# --------------------------------------------------- snapshot and resume


def test_segmented_replay_is_deterministic_and_kernel_invariant(trace_path):
    config = _config("widir")
    first = result_digest(replay_trace(trace_path, config, snapshot_every=2))
    again = result_digest(replay_trace(trace_path, config, snapshot_every=2))
    assert again == first


def test_resume_from_durable_snapshot_matches_uninterrupted(
    trace_path, tmp_path, monkeypatch
):
    """In-process kill: die right after persisting a snapshot, resume."""
    import repro.traces.replay as replay_mod

    config = _config("widir")
    uninterrupted = result_digest(
        replay_trace(trace_path, config, snapshot_every=2)
    )

    snap = tmp_path / "resume.snap"

    class Killed(BaseException):
        pass

    original = replay_mod.save_snapshot

    def save_then_die(path, snapshot):
        original(path, snapshot)
        if snapshot["progress"]["segment"] >= 2:
            raise Killed()

    monkeypatch.setattr(replay_mod, "save_snapshot", save_then_die)
    with pytest.raises(Killed):
        replay_trace(trace_path, config, snapshot_every=2, snapshot_path=snap)
    monkeypatch.setattr(replay_mod, "save_snapshot", original)

    assert snap.exists()
    resumed = replay_trace(
        trace_path, config, snapshot_every=2, snapshot_path=snap
    )
    assert result_digest(resumed) == uninterrupted
    assert not snap.exists()  # completed runs clean up their snapshot


def test_snapshot_rejects_mismatched_trace_or_interval(
    trace_path, tmp_path, monkeypatch
):
    import repro.traces.replay as replay_mod

    config = _config("widir")
    snap = tmp_path / "stale.snap"

    class Killed(BaseException):
        pass

    original = replay_mod.save_snapshot

    def save_then_die(path, snapshot):
        original(path, snapshot)
        raise Killed()

    monkeypatch.setattr(replay_mod, "save_snapshot", save_then_die)
    with pytest.raises(Killed):
        replay_trace(trace_path, config, snapshot_every=2, snapshot_path=snap)
    monkeypatch.setattr(replay_mod, "save_snapshot", original)

    # Wrong interval: the snapshot encodes snapshot_every=2.
    with pytest.raises(TraceFormatError):
        replay_trace(trace_path, config, snapshot_every=3, snapshot_path=snap)
    # Wrong trace: re-record with a different seed at a new path.
    other = tmp_path / "other.wtr"
    record_app_trace(
        other, APP, CORES, MEMOPS, trace_seed=TRACE_SEED + 1,
        chunk_records=CHUNK_RECORDS,
    )
    with pytest.raises(TraceFormatError):
        replay_trace(other, config, snapshot_every=2, snapshot_path=snap)


_CHILD_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import repro.traces.replay as replay
    from repro.config.presets import protocol_config

    phase, trace, snap = sys.argv[1], sys.argv[2], sys.argv[3]
    config = protocol_config("widir", num_cores={cores}, seed={seed})

    if phase == "kill":
        original = replay.save_snapshot

        def save_then_kill(path, snapshot):
            original(path, snapshot)
            if snapshot["progress"]["segment"] >= 2:
                os.kill(os.getpid(), signal.SIGKILL)

        replay.save_snapshot = save_then_kill

    result = replay.replay_trace(
        trace, config, snapshot_every=2,
        snapshot_path=(None if phase == "full" else snap),
    )
    print(replay.result_digest(result))
    """
)


def test_sigkill_resume_identity_subprocess(trace_path, tmp_path):
    """Real SIGKILL mid-trace, then resume: digest equals uninterrupted."""
    script = _CHILD_SCRIPT.format(cores=CORES, seed=SEED)
    snap = tmp_path / "killed.snap"
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")

    def child(phase):
        return subprocess.run(
            [sys.executable, "-c", script, phase, str(trace_path), str(snap)],
            capture_output=True, text=True, env=env,
        )

    full = child("full")
    assert full.returncode == 0, full.stderr
    uninterrupted = full.stdout.strip()

    killed = child("kill")
    assert killed.returncode == -signal.SIGKILL
    assert snap.exists(), "no durable snapshot survived the SIGKILL"

    resumed = child("resume")
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip() == uninterrupted
    assert not snap.exists()


# ------------------------------------------------------- window sharding


def test_full_window_equals_continuous_replay(trace_path):
    config = _config("widir")
    continuous = result_digest(replay_trace(trace_path, config))
    with TraceReader(trace_path) as reader:
        window = [(0, reader.num_chunks(core)) for core in range(CORES)]
    cold = replay_window(trace_path, config, window)
    assert result_digest(cold) == continuous


def test_window_merge_is_deterministic_and_order_invariant(trace_path):
    config = _config("widir")
    windows = plan_windows(trace_path, 2)
    assert len(windows) >= 2, "trace too small to shard — raise MEMOPS"
    with TraceReader(trace_path) as reader:
        chunks = [reader.num_chunks(core) for core in range(CORES)]
    # Windows tile the whole trace per core, contiguously.
    for core in range(CORES):
        spans = [tuple(window[core]) for window in windows]
        assert spans[0][0] == 0
        assert spans[-1][1] == chunks[core]
        for left, right in zip(spans, spans[1:]):
            assert left[1] == right[0]

    results = [replay_window(trace_path, config, w) for w in windows]
    merged = merge_window_results(results, config, app=APP)
    reversed_merge = merge_window_results(list(reversed(results)), config, app=APP)
    assert result_digest(merged) == result_digest(reversed_merge)
    # Recomputing any window reproduces its digest (cold start, no state).
    again = replay_window(trace_path, config, windows[0])
    assert result_digest(again) == result_digest(results[0])


def test_plan_windows_respects_max_windows(trace_path):
    windows = plan_windows(trace_path, 1, max_windows=2)
    assert 1 <= len(windows) <= 2


# ------------------------------------------- harness and API integration


def test_run_request_key_ignores_trace_path_but_pins_trace_id(trace_path):
    config = _config("widir")
    with TraceReader(trace_path) as reader:
        trace_id = reader.trace_id
    generator = RunRequest(APP, config, MEMOPS, TRACE_SEED)
    # Pre-trace cache-key shape is untouched for generator-driven runs.
    assert set(generator.canonical()) == {
        "schema", "app", "config", "memops", "trace_seed",
    }
    here = RunRequest(APP, config, 0, trace_path=str(trace_path), trace_id=trace_id)
    elsewhere = RunRequest(
        APP, config, 0, trace_path="/moved/copy.wtr", trace_id=trace_id
    )
    assert run_key(here) == run_key(elsewhere)
    rerecorded = RunRequest(
        APP, config, 0, trace_path=str(trace_path), trace_id="f" * 16
    )
    assert run_key(rerecorded) != run_key(here)
    windowed = RunRequest(
        APP, config, 0, trace_path=str(trace_path), trace_id=trace_id,
        trace_window=((0, 1),) * CORES,
    )
    assert run_key(windowed) != run_key(here)


def test_executor_replays_trace_requests(trace_path, tmp_path):
    config = _config("widir")
    plan = ExperimentPlan()
    index = plan.add_trace(trace_path, config)
    request = plan.requests[index]
    with TraceReader(trace_path) as reader:
        assert request.trace_id == reader.trace_id
        assert request.app == APP
    executor = Executor(workers=1, cache_dir=tmp_path / "cache", use_cache=True)
    (result,) = executor.map_runs(plan)
    assert result_digest(result) == result_digest(replay_trace(trace_path, config))
    # Second pass is served from the memo cache, not re-simulated.
    (cached,) = executor.map_runs(plan)
    assert result_digest(cached) == result_digest(result)
    assert executor.stats.cache_hits >= 1


def test_api_record_and_replay_roundtrip(tmp_path):
    from repro import api

    out = tmp_path / "api.wtr"
    info = api.record_trace(APP, out=out, cores=4, memops=120, trace_seed=1)
    assert isinstance(info, api.TraceFileInfo)
    assert info.num_cores == 4
    assert info.trace_id
    assert api.validate_trace(out).details["ok"] is True
    assert api.trace_info(out).trace_id == info.trace_id

    result = api.replay(out, protocol="widir", seed=SEED)
    direct = replay_trace(out, protocol_config("widir", num_cores=4, seed=SEED))
    assert result_digest(result) == result_digest(direct)


def _regenerate():  # pragma: no cover - maintenance entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "radix.wtr"
        record_app_trace(
            path, APP, CORES, MEMOPS,
            trace_seed=TRACE_SEED, chunk_records=CHUNK_RECORDS,
        )
        for protocol in backend_names():
            digest = result_digest(replay_trace(path, _config(protocol)))
            print(f'    "{protocol}": "{digest}",')


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
