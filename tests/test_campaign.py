"""Fault-tolerance tests: crash-safe IO, supervised retries, campaign resume.

The contract under test (ISSUE 5): a campaign interrupted at *any* point —
worker crash, hang, timeout, or SIGKILL of the whole process — resumes
exactly where it died and converges to an aggregate ``results.json`` /
``digest.txt`` that is byte-identical to an uninterrupted execution, while
runs that exhaust their retries degrade into an explicit provenance
manifest instead of aborting the sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import supervisor as supervisor_module
from repro.harness.campaign import (
    CHECKPOINT_SCHEMA_VERSION,
    Campaign,
    CampaignError,
    CampaignResultSource,
    CampaignSpec,
    run_campaign,
)
from repro.harness.executor import Executor, ExperimentPlan, run_key
from repro.harness.figures import figure6_mpki
from repro.harness.ioutils import (
    append_jsonl,
    atomic_write_json,
    iter_stale_tmp,
    quarantine,
    read_jsonl,
)
from repro.harness.supervisor import (
    RetryPolicy,
    ScriptedFaults,
    SeededFaults,
    WorkerSupervisor,
)
from repro.obs.campaign import CampaignTelemetry

APP = "volrend"
CORES = 4
MEMOPS = 120

REPO_ROOT = Path(__file__).resolve().parent.parent


def _spec(name="t", **overrides):
    defaults = dict(
        name=name, kind="protocols", apps=(APP,), cores=(CORES,), memops=MEMOPS
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _executor(tmp_path):
    """Isolated executor: private cache dir so tests never cross-talk."""
    return Executor(workers=1, cache_dir=tmp_path / "cache", use_cache=True)


def _supervisor(**overrides):
    defaults = dict(
        workers=2,
        retry=RetryPolicy(max_attempts=3, unit=0.0),
        heartbeat_interval=0.05,
    )
    defaults.update(overrides)
    return WorkerSupervisor(**defaults)


def _todo(spec):
    campaign = Campaign("unused", spec)
    seen = {}
    for key, request in zip(campaign.keys, campaign.plan.requests):
        seen.setdefault(key, request)
    return [(key, request) for key, request in seen.items()]


# ----------------------------------------------------------------- ioutils


class TestIoutils:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "a" / "b.json"
        atomic_write_json(target, {"x": 1, "a": 2})
        assert json.loads(target.read_text()) == {"x": 1, "a": 2}
        assert list(iter_stale_tmp(tmp_path)) == []

    def test_atomic_write_is_canonical(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        atomic_write_json(one, {"b": 1, "a": [1, 2]})
        atomic_write_json(two, {"a": [1, 2], "b": 1})
        assert one.read_bytes() == two.read_bytes()

    def test_journal_round_trip(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        append_jsonl(journal, {"n": 2})
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == [1, 2]
        assert bad == []

    def test_torn_final_line_dropped_silently(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        with open(journal, "a") as handle:
            handle.write('{"n": 2, "torn')  # SIGKILL mid-append
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == [1]
        assert bad == []  # expected crash artifact, not corruption

    def test_mid_file_corruption_is_reported(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        with open(journal, "a") as handle:
            handle.write("not json\n")
        append_jsonl(journal, {"n": 3})
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == [1, 3]
        assert bad == [2]

    def test_quarantine_moves_file_aside(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("garbage")
        moved = quarantine(victim)
        assert not victim.exists()
        assert moved.exists() and ".corrupt." in moved.name

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == ([], [])


# ----------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_schedule_is_seeded_and_reproducible(self):
        a = RetryPolicy(seed=7, unit=0.01)
        b = RetryPolicy(seed=7, unit=0.01)
        delays_a = [a.delay_seconds("k1", n) for n in range(1, 5)]
        delays_b = [b.delay_seconds("k1", n) for n in range(1, 5)]
        assert delays_a == delays_b

    def test_streams_are_independent_per_key(self):
        policy = RetryPolicy(seed=7, unit=0.01)
        # Drawing for k2 must not perturb k1's schedule.
        fresh = RetryPolicy(seed=7, unit=0.01)
        first = fresh.delay_seconds("k1", 1)
        policy.delay_seconds("k2", 1)
        assert policy.delay_seconds("k1", 1) == first

    def test_unit_zero_means_instant_retries(self):
        policy = RetryPolicy(seed=0, unit=0.0)
        assert policy.delay_seconds("k", 3) == 0.0

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# --------------------------------------------------------- fault injection


class TestFaultInjection:
    def test_scripted_faults_match_prefix_and_attempt(self):
        faults = ScriptedFaults({("abc", 1): "crash"})
        assert faults("abcdef", 1) == "crash"
        assert faults("abcdef", 2) is None
        assert faults("zzz", 1) is None

    def test_scripted_faults_reject_unknown_kind(self):
        with pytest.raises(ValueError):
            ScriptedFaults({("k", 1): "meteor"})

    def test_seeded_faults_are_deterministic(self):
        a = SeededFaults({"crash": 0.5}, seed=3)
        b = SeededFaults({"crash": 0.5}, seed=3)
        draws = [(f"k{i}", 1) for i in range(32)]
        assert [a(*d) for d in draws] == [b(*d) for d in draws]

    def test_seeded_faults_heal_after_max_attempts(self):
        faults = SeededFaults({"crash": 1.0}, seed=0, max_faulty_attempts=2)
        assert faults("k", 1) == "crash"
        assert faults("k", 2) == "crash"
        assert faults("k", 3) is None

    def test_parse_cli_spec(self):
        faults = SeededFaults.parse("crash=0.2, hang=0.1", seed=5)
        assert faults.rates == {"crash": 0.2, "hang": 0.1}
        with pytest.raises(ValueError):
            SeededFaults.parse("meteor=1.0")


# -------------------------------------------------------------- supervisor


class TestSupervisor:
    def test_clean_batch_completes(self):
        todo = _todo(_spec())
        outcomes = _supervisor().run(todo)
        assert len(outcomes) == len(todo)
        assert all(o.ok and o.attempts == 1 for o in outcomes.values())
        assert all(o.payload["cycles"] > 0 for o in outcomes.values())

    def test_crash_is_retried_and_heals(self):
        todo = _todo(_spec())
        victim = todo[0][0]
        events = []
        outcomes = _supervisor(
            faults=ScriptedFaults({(victim, 1): "crash"}),
            on_event=events.append,
        ).run(todo)
        outcome = outcomes[victim]
        assert outcome.ok and outcome.attempts == 2
        assert [r.status for r in outcome.history] == ["crashed", "ok"]
        assert any(
            e["event"] == "retry" and e["status"] == "crashed" for e in events
        )

    def test_worker_error_is_retried(self):
        todo = _todo(_spec())
        victim = todo[-1][0]
        outcomes = _supervisor(
            faults=ScriptedFaults({(victim, 1): "error"})
        ).run(todo)
        assert outcomes[victim].ok and outcomes[victim].attempts == 2
        assert outcomes[victim].history[0].status == "error"

    def test_retry_exhaustion_reports_failed_without_raising(self):
        todo = _todo(_spec())
        victim = todo[0][0]
        outcomes = _supervisor(
            retry=RetryPolicy(max_attempts=2, unit=0.0),
            faults=ScriptedFaults({(victim, 1): "error", (victim, 2): "error"}),
        ).run(todo)
        failed = outcomes[victim]
        assert not failed.ok
        assert failed.attempts == 2
        assert "error" in failed.detail
        # The rest of the batch still completed.
        assert all(o.ok for k, o in outcomes.items() if k != victim)

    def test_hang_hits_wall_clock_timeout(self):
        todo = _todo(_spec())[:1]
        victim = todo[0][0]
        outcomes = _supervisor(
            timeout=0.4,
            faults=ScriptedFaults({(victim, 1): "hang"}),
        ).run(todo)
        assert outcomes[victim].ok  # healed on attempt 2
        assert outcomes[victim].history[0].status == "timeout"

    def test_stall_is_detected_via_missing_heartbeats(self):
        todo = _todo(_spec())[:1]
        victim = todo[0][0]
        outcomes = _supervisor(
            heartbeat_interval=0.05,
            heartbeat_grace=4.0,  # silent for 0.2s => hung
            faults=ScriptedFaults({(victim, 1): "stall"}),
        ).run(todo)
        assert outcomes[victim].ok
        assert outcomes[victim].history[0].status == "hung"

    def test_payloads_match_in_process_simulation(self):
        from repro.harness.executor import _simulate

        todo = _todo(_spec())
        outcomes = _supervisor().run(todo)
        for key, request in todo:
            expected, _ = _simulate(request)
            assert outcomes[key].payload == expected


    def test_large_results_survive_fast_heartbeats(self, monkeypatch):
        """A result over 16 KiB goes out as a header write and a body
        write; a heartbeat sent between the two used to corrupt the pipe
        stream, and ``run`` raised instead of retrying."""
        blob = "x" * 1_000_000

        def fake_simulate(request):
            time.sleep(0.002)
            return {"blob": blob}, 0.0

        monkeypatch.setattr(supervisor_module, "_simulate", fake_simulate)
        request = _todo(_spec())[0][1]
        todo = [(f"k{i:02d}", request) for i in range(20)]
        # A 5 s silence window: under load a beat may lag, and this test
        # is about frame integrity, not hang detection.
        outcomes = _supervisor(
            heartbeat_interval=0.0005, heartbeat_grace=10_000
        ).run(todo)
        assert len(outcomes) == len(todo)
        for outcome in outcomes.values():
            assert outcome.ok and outcome.attempts == 1
            assert outcome.payload["blob"] == blob


class TestChildReuse:
    """Each slot is one long-lived child: fault-free and ``err`` runs keep
    it, a crashed, hung, stalled or timed-out child is replaced."""

    #: Enough 20 ms runs that the survivor is still busy when a fault is
    #: detected, so the next launch has to fork the replacement.
    RUNS = 24

    @pytest.fixture(autouse=True)
    def _fake_simulate(self, monkeypatch):
        def fake_simulate(request):
            time.sleep(0.02)
            return {"pid": os.getpid()}, 0.0

        monkeypatch.setattr(supervisor_module, "_simulate", fake_simulate)

    def _run(self, faults=None, **overrides):
        events = []
        request = _todo(_spec())[0][1]
        todo = [(f"k{i:02d}", request) for i in range(self.RUNS)]
        outcomes = _supervisor(
            faults=faults, on_event=events.append, **overrides
        ).run(todo)
        assert all(o.ok for o in outcomes.values())
        launches = [e["pid"] for e in events if e["event"] == "launch"]
        return outcomes, launches

    def test_fault_free_runs_use_one_child_per_slot(self):
        outcomes, launches = self._run()
        assert len(launches) == self.RUNS
        assert len(set(launches)) == 2
        assert {o.payload["pid"] for o in outcomes.values()} == set(launches)

    def test_err_result_keeps_its_child(self):
        outcomes, launches = self._run(
            faults=ScriptedFaults({("k00", 1): "error"})
        )
        assert outcomes["k00"].history[0].status == "error"
        assert len(launches) == self.RUNS + 1
        assert len(set(launches)) == 2

    @pytest.mark.parametrize(
        "fault, overrides, status",
        [
            ("crash", {}, "crashed"),
            ("hang", {"timeout": 0.2}, "timeout"),
            ("stall", {"heartbeat_grace": 4.0}, "hung"),
        ],
    )
    def test_faulted_child_is_replaced_other_slot_kept(
        self, fault, overrides, status
    ):
        outcomes, launches = self._run(
            faults=ScriptedFaults({("k00", 1): fault}), **overrides
        )
        assert outcomes["k00"].history[0].status == status
        # k00 goes first to one fresh child, k01 to the other.
        victim, survivor, later = launches[0], launches[1], launches[2:]
        assert victim not in later
        assert survivor in later
        assert len(set(launches)) == 3


class TestOrphanedChildren:
    """A long-lived child must not outlive a SIGKILLed supervisor."""

    SCRIPT = (
        "import time\n"
        "from repro.harness import supervisor\n"
        "from repro.harness.campaign import Campaign, CampaignSpec\n"
        "supervisor._simulate = lambda request: time.sleep(120)\n"
        "spec = CampaignSpec(name='t', apps=('volrend',), cores=(4,),\n"
        "                    memops=120)\n"
        "request = Campaign('unused', spec).plan.requests[0]\n"
        "def on_event(event):\n"
        "    if event['event'] == 'launch':\n"
        "        print(event['pid'], flush=True)\n"
        "supervisor.WorkerSupervisor(workers=2, on_event=on_event).run(\n"
        "    [('a', request), ('b', request)])\n"
    )

    @staticmethod
    def _alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    def test_children_exit_when_the_supervisor_is_killed(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        victim = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            pids = [int(victim.stdout.readline()) for _ in range(2)]
        finally:
            victim.kill()
            victim.wait(timeout=30)
            victim.stdout.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(self._alive, pids)):
            time.sleep(0.1)
        assert not any(map(self._alive, pids)), pids


# ----------------------------------------------------------------- campaign


class TestCampaignSpec:
    def test_round_trips_through_dict(self):
        spec = _spec(kind="thresholds", thresholds=(2, 4))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_kind_and_empty_apps(self):
        with pytest.raises(ValueError):
            _spec(kind="meteor")
        with pytest.raises(ValueError):
            _spec(apps=())

    def test_build_is_deterministic(self):
        plan_a, labels_a = _spec().build()
        plan_b, labels_b = _spec().build()
        assert labels_a == labels_b
        assert [run_key(r) for r in plan_a.requests] == [
            run_key(r) for r in plan_b.requests
        ]

    def test_thresholds_kind_builds_baseline_plus_ladder(self):
        _, labels = _spec(kind="thresholds", thresholds=(2, 3)).build()
        assert labels == [
            f"{APP}/baseline/{CORES}c",
            f"{APP}/widir/{CORES}c/t2",
            f"{APP}/widir/{CORES}c/t3",
        ]


class TestCampaignLifecycle:
    def test_run_writes_all_artifacts(self, tmp_path):
        directory = tmp_path / "camp"
        report = run_campaign(
            directory, _spec(), supervisor=_supervisor(),
            executor=_executor(tmp_path),
        )
        assert report.ok and report.completed == report.total == 2
        for name in (
            "campaign.json", "journal.jsonl", "results.json",
            "digest.txt", "provenance.json",
        ):
            assert (directory / name).exists(), name
        results = json.loads((directory / "results.json").read_text())
        assert sorted(results["results"]) == sorted(
            [f"{APP}/baseline/{CORES}c", f"{APP}/widir/{CORES}c/t3"]
        )
        provenance = json.loads((directory / "provenance.json").read_text())
        assert provenance["partial"] is False
        assert provenance["missing"] == []
        assert list(iter_stale_tmp(directory)) == []

    def test_rerun_is_pure_resume(self, tmp_path):
        directory = tmp_path / "camp"
        first = run_campaign(
            directory, _spec(), supervisor=_supervisor(),
            executor=_executor(tmp_path),
        )
        blob = (directory / "results.json").read_bytes()
        second = run_campaign(
            directory, _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        assert second.resumed == second.total
        assert second.executed == 0
        assert second.digest == first.digest
        assert (directory / "results.json").read_bytes() == blob

    def test_create_twice_requires_resume(self, tmp_path):
        directory = tmp_path / "camp"
        Campaign.create(directory, _spec())
        with pytest.raises(CampaignError):
            Campaign.create(directory, _spec())
        with pytest.raises(CampaignError):
            run_campaign(directory, _spec(), resume=False)

    def test_spec_mismatch_is_rejected(self, tmp_path):
        directory = tmp_path / "camp"
        Campaign.create(directory, _spec())
        with pytest.raises(CampaignError):
            run_campaign(directory, _spec(memops=999))

    def test_load_rejects_non_campaign_dirs(self, tmp_path):
        with pytest.raises(CampaignError):
            Campaign.load(tmp_path)
        (tmp_path / "campaign.json").write_text("{corrupt")
        with pytest.raises(CampaignError):
            Campaign.load(tmp_path)

    def test_load_rejects_schema_drift(self, tmp_path):
        directory = tmp_path / "camp"
        Campaign.create(directory, _spec())
        manifest = json.loads((directory / "campaign.json").read_text())
        manifest["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        (directory / "campaign.json").write_text(json.dumps(manifest))
        with pytest.raises(CampaignError):
            Campaign.load(directory)


class TestResumeIdentity:
    """The headline invariant: interrupted+resumed == uninterrupted, in bytes."""

    def test_crash_retries_do_not_change_the_digest(self, tmp_path):
        clean_dir, faulty_dir = tmp_path / "clean", tmp_path / "faulty"
        clean = run_campaign(
            clean_dir, _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        script = {(key, 1): "crash" for key, _ in _todo(_spec())}
        faulty = run_campaign(
            faulty_dir, _spec(),
            supervisor=_supervisor(faults=ScriptedFaults(script)),
            executor=Executor(workers=1, use_cache=False),
        )
        assert faulty.retries == len(script)
        assert (faulty_dir / "results.json").read_bytes() == (
            clean_dir / "results.json"
        ).read_bytes()
        assert (faulty_dir / "digest.txt").read_bytes() == (
            clean_dir / "digest.txt"
        ).read_bytes()

    def test_journal_replay_survives_torn_final_line(self, tmp_path):
        directory = tmp_path / "camp"
        run_campaign(
            directory, _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        digest = (directory / "digest.txt").read_bytes()
        with open(directory / "journal.jsonl", "a") as handle:
            handle.write('{"type": "run", "torn')  # simulated SIGKILL
        campaign = Campaign.load(directory)
        status = campaign.status()
        assert status.done and status.journal_bad_lines == []
        report = campaign.run(
            supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        assert report.resumed == report.total
        assert (directory / "digest.txt").read_bytes() == digest

    def test_missing_payload_is_demoted_and_rerun(self, tmp_path):
        directory = tmp_path / "camp"
        run_campaign(
            directory, _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        digest = (directory / "digest.txt").read_bytes()
        campaign = Campaign.load(directory)
        victim = campaign.keys[0]
        (directory / "runs" / f"{victim}.json").unlink()
        assert victim not in campaign.completed_payloads()
        report = campaign.run(
            supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        assert report.executed == 1
        assert (directory / "digest.txt").read_bytes() == digest

    def test_corrupt_payload_is_quarantined_and_rerun(self, tmp_path):
        directory = tmp_path / "camp"
        run_campaign(
            directory, _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        digest = (directory / "digest.txt").read_bytes()
        campaign = Campaign.load(directory)
        victim = directory / "runs" / f"{campaign.keys[0]}.json"
        victim.write_text("{torn json")
        report = campaign.run(
            supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        assert report.executed == 1
        assert (directory / "digest.txt").read_bytes() == digest
        assert list(directory.glob("runs/*.corrupt.*"))

    def test_cache_hits_count_as_completions(self, tmp_path):
        executor = _executor(tmp_path)
        warm_dir, campaign_dir = tmp_path / "warm", tmp_path / "camp"
        run_campaign(
            warm_dir, _spec(), supervisor=_supervisor(), executor=executor
        )
        report = run_campaign(
            campaign_dir, _spec(), supervisor=_supervisor(), executor=executor
        )
        assert report.cache_hits == report.total
        assert report.executed == 0
        assert (campaign_dir / "digest.txt").read_bytes() == (
            warm_dir / "digest.txt"
        ).read_bytes()


class TestGracefulDegradation:
    def _degraded(self, tmp_path):
        directory = tmp_path / "camp"
        campaign = Campaign.create(directory, _spec())
        victim = campaign.key_for_label[f"{APP}/widir/{CORES}c/t3"]
        script = {(victim, n): "error" for n in (1, 2)}
        report = campaign.run(
            supervisor=_supervisor(
                retry=RetryPolicy(max_attempts=2, unit=0.0),
                faults=ScriptedFaults(script),
            ),
            executor=Executor(workers=1, use_cache=False),
        )
        return directory, campaign, report

    def test_failed_run_degrades_instead_of_aborting(self, tmp_path):
        directory, _, report = self._degraded(tmp_path)
        assert not report.ok
        assert report.completed == 1 and report.total == 2
        assert report.failed[0]["label"] == f"{APP}/widir/{CORES}c/t3"
        provenance = json.loads((directory / "provenance.json").read_text())
        assert provenance["partial"] is True
        assert [m["label"] for m in provenance["missing"]] == [
            f"{APP}/widir/{CORES}c/t3"
        ]
        assert provenance["missing"][0]["attempts"] == 2

    def test_status_surfaces_failures_and_retries(self, tmp_path):
        _, campaign, _ = self._degraded(tmp_path)
        status = campaign.status()
        assert not status.done
        assert [f["label"] for f in status.failed] == [
            f"{APP}/widir/{CORES}c/t3"
        ]
        assert status.retries_by_kind.get("error", 0) >= 1
        rendered = status.render()
        assert "degraded" in rendered and "campaign resume" in rendered

    def test_partial_figures_render_with_missing_note(self, tmp_path):
        _, campaign, _ = self._degraded(tmp_path)
        source = campaign.result_source()
        figure = figure6_mpki(
            apps=(APP,), num_cores=CORES, memops=MEMOPS, executor=source
        )
        assert figure.partial
        assert "PARTIAL" in figure.text

    def test_strict_result_source_raises(self, tmp_path):
        _, campaign, _ = self._degraded(tmp_path)
        plan, _ = campaign.spec.build()
        with pytest.raises(CampaignError):
            campaign.result_source(strict=True).map_runs(plan)

    def test_resume_heals_the_degraded_run(self, tmp_path):
        directory, campaign, _ = self._degraded(tmp_path)
        clean_dir = tmp_path / "clean"
        run_campaign(
            clean_dir, _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
        )
        report = campaign.run(
            supervisor=_supervisor(),  # fresh retry budget, no faults
            executor=Executor(workers=1, use_cache=False),
        )
        assert report.ok and report.completed == 2
        assert (directory / "results.json").read_bytes() == (
            clean_dir / "results.json"
        ).read_bytes()


class TestTelemetry:
    def test_counters_track_the_retry_ladder(self, tmp_path):
        telemetry = CampaignTelemetry()
        script = {(key, 1): "crash" for key, _ in _todo(_spec())}
        run_campaign(
            tmp_path / "camp", _spec(),
            supervisor=_supervisor(faults=ScriptedFaults(script)),
            executor=Executor(workers=1, use_cache=False),
            telemetry=telemetry,
        )
        counters = telemetry.snapshot()["counters"]
        assert counters["runs.total"] == 2
        assert counters["runs.completed"] == 2
        assert counters["retries.crashed"] == 2
        assert counters["attempts.launched"] == 4

    def test_chrome_trace_export(self, tmp_path):
        telemetry = CampaignTelemetry()
        run_campaign(
            tmp_path / "camp", _spec(), supervisor=_supervisor(),
            executor=Executor(workers=1, use_cache=False),
            telemetry=telemetry,
        )
        out = tmp_path / "trace.json"
        telemetry.write_chrome_trace(out, workers=2)
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        assert any(e.get("ph") == "C" for e in events)


# ----------------------------------------------------- executor hardening


class TestExecutorCacheHardening:
    def _request(self):
        plan = ExperimentPlan()
        from repro.config.presets import widir_config

        plan.add(APP, widir_config(num_cores=CORES), MEMOPS)
        return plan

    def test_corrupt_cache_entry_is_quarantined_and_recomputed(self, tmp_path):
        executor = _executor(tmp_path)
        plan = self._request()
        first = executor.map_runs(plan)[0]
        key = run_key(plan.requests[0])
        path = executor._cache_path(key)
        path.write_text("{half a json")
        again = executor.map_runs(self._request())[0]
        assert again.to_dict() == first.to_dict()
        assert list(tmp_path.glob("cache/*.corrupt.*"))
        # The recomputed entry was re-stored atomically.
        assert json.loads(path.read_text()) == first.to_dict()

    def test_cache_writes_leave_no_tmp_files(self, tmp_path):
        executor = _executor(tmp_path)
        executor.map_runs(self._request())
        assert list(iter_stale_tmp(tmp_path / "cache")) == []

    def test_prune_cache_collects_quarantined_debris(self, tmp_path):
        executor = _executor(tmp_path)
        executor.map_runs(self._request())
        (tmp_path / "cache" / "x.json.corrupt.1").write_text("junk")
        (tmp_path / "cache" / "y.json.tmp.2").write_text("junk")
        assert executor.prune_cache() == 3
        assert list((tmp_path / "cache").iterdir()) == []


# --------------------------------------------------- kill/resume property


class TestKillResumeProperty:
    """SIGKILL the whole campaign process at seeded points; resume must
    converge to the uninterrupted digest, byte for byte."""

    SPEC_ARGS = [
        "campaign", "run",
        "--apps", "volrend,radiosity",
        "--cores", "8",
        "--memops", "400",
        "--workers", "2",
        "--no-cache",
        "--backoff-unit", "0",
        "--name", "killtest",
    ]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return env

    def _run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=REPO_ROOT, env=self._env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=120,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = tmp_path / "reference"
        proc = self._run_cli(*self.SPEC_ARGS, "--out", str(reference))
        assert proc.returncode == 0, proc.stdout
        want = (reference / "digest.txt").read_bytes()

        for round_index, kill_after in enumerate((0.3, 0.9)):
            directory = tmp_path / f"killed{round_index}"
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.SPEC_ARGS,
                 "--out", str(directory)],
                cwd=REPO_ROOT, env=self._env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            time.sleep(kill_after)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)

            resumed = self._run_cli("campaign", "resume", str(directory))
            assert resumed.returncode == 0, resumed.stdout
            got = (directory / "digest.txt").read_bytes()
            assert got == want, (
                f"kill at +{kill_after}s diverged:\n{resumed.stdout}"
            )
            # Crash-safe writers never leave torn temp files behind.
            assert list(iter_stale_tmp(directory)) == []

            status = self._run_cli("campaign", "status", str(directory))
            assert status.returncode == 0, status.stdout
            assert "[complete]" in status.stdout


# --------------------------------------------------- trace-sharded campaign


class TestTraceShardedCampaign:
    def test_digest_matches_across_worker_counts(self, tmp_path):
        """One recorded trace fanned across local workers by chunk window.

        A ``kind="trace"`` campaign cuts the trace into barrier-safe
        windows (one run per window per protocol). Every window row must
        be a genuine shard (cold windowed replay, keyed by the trace's
        content digest), and two workers must land byte for byte on the
        one-worker ``results.json``.
        """
        from repro.traces import record_app_trace

        trace = tmp_path / "volrend.wtr"
        info = record_app_trace(
            trace, APP, CORES, MEMOPS, trace_seed=3, chunk_records=16
        )
        spec = CampaignSpec(
            name="trace-shards",
            kind="trace",
            protocols=("baseline", "widir"),
            trace_path=str(trace),
            trace_shards=3,
        )
        reports = {
            workers: run_campaign(
                tmp_path / f"w{workers}", spec,
                supervisor=_supervisor(workers=workers),
                executor=Executor(workers=1, use_cache=False),
            )
            for workers in (1, 2)
        }
        campaign = Campaign.load(tmp_path / "w1")
        assert any("shard" in label for label in campaign.labels)
        sharded = [
            r for r in campaign.plan.requests if r.trace_window is not None
        ]
        assert len(sharded) == len(campaign.plan.requests) >= 4
        assert all(r.trace_id == info["trace_id"] for r in sharded)

        one, two = reports[1], reports[2]
        assert one.ok and two.ok
        assert one.executed == two.executed == len(sharded)
        assert two.digest == one.digest
        assert (tmp_path / "w2" / "results.json").read_bytes() == (
            tmp_path / "w1" / "results.json"
        ).read_bytes()
