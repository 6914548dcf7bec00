"""Fault-tolerant, crash-safe-resumable experiment campaigns.

A *campaign* is a declared sweep (an
:class:`~repro.harness.executor.ExperimentPlan` built deterministically
from a :class:`CampaignSpec`) executed under the
:class:`~repro.harness.supervisor.WorkerSupervisor` with durable
checkpoints, so the harness survives the same fault classes the WiDir
protocol itself is built around (collisions -> BRS backoff; here: worker
crashes / hangs / timeouts -> seeded retry with the same
:class:`~repro.wireless.mac.BackoffPolicy` shape).

On-disk layout (all writes crash-safe; see :mod:`repro.harness.ioutils`)::

    <dir>/campaign.json     spec + expected run keys (atomic, versioned)
    <dir>/journal.jsonl     append-only checkpoint journal: one fsynced
                            record per completed run and per failed
                            attempt; a torn final line (SIGKILL mid-append)
                            is dropped on replay
    <dir>/runs/<key>.json   canonical result payloads (atomic, written
                            *before* the journal records completion)
    <dir>/results.json      aggregate label -> payload map (atomic)
    <dir>/digest.txt        sha256 of results.json — the resume-identity
                            contract: interrupted+resumed == uninterrupted
    <dir>/provenance.json   which runs made it, which are missing and why

The aggregate is a pure function of the completed payloads (sorted labels,
canonical JSON), so *when* and *how often* a campaign was interrupted is
invisible in ``results.json``/``digest.txt`` — the property the kill/resume
tests and the ``campaign-smoke`` CI job assert byte-for-byte.

Graceful degradation: a run that exhausts its retries is recorded as
``failed`` in the journal and listed (with its attempt history) in
``provenance.json``; the aggregate, figures, and sweeps render from the
runs that *did* complete instead of aborting the campaign
(:class:`CampaignResultSource` + the partial-rendering support in
:mod:`repro.harness.figures`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.coherence.backend import get_backend
from repro.config.presets import baseline_config, protocol_config, widir_config
from repro.harness.executor import (
    Executor,
    ExperimentPlan,
    RunRequest,
    run_key,
)
from repro.harness.ioutils import (
    append_jsonl,
    atomic_write_json,
    atomic_write_text,
    iter_stale_tmp,
    quarantine,
    read_jsonl,
)
from repro.harness.runner import SimulationResult
from repro.harness.supervisor import RetryPolicy, WorkerSupervisor
from repro.harness.sweeps import label_for, mac_variants
from repro.wireless.mac import get_mac
from repro.obs.campaign import CampaignTelemetry

#: Bump on any change to the journal / manifest / aggregate shapes.
CHECKPOINT_SCHEMA_VERSION = 1

MANIFEST_NAME = "campaign.json"
JOURNAL_NAME = "journal.jsonl"
RUNS_DIR = "runs"
RESULTS_NAME = "results.json"
DIGEST_NAME = "digest.txt"
PROVENANCE_NAME = "provenance.json"

#: Sweep kinds a spec can declare (each builds its plan deterministically).
SWEEP_KINDS = ("protocols", "thresholds", "trace")


class CampaignError(RuntimeError):
    """Raised for unusable campaign directories (not for worker faults)."""


# ---------------------------------------------------------------- the spec


@dataclass(frozen=True)
class CampaignSpec:
    """Deterministic description of a campaign's run matrix.

    The spec — not the plan — is what the manifest persists: resuming
    rebuilds the plan from the spec and cross-checks the recomputed run
    keys against the manifest, so a resumed campaign provably executes the
    same matrix the interrupted one declared.
    """

    name: str
    kind: str = "protocols"
    apps: Tuple[str, ...] = ()
    cores: Tuple[int, ...] = (16,)
    memops: Optional[int] = None
    seed: int = 42
    thresholds: Tuple[int, ...] = (2, 3, 4, 5)
    trace_seed: int = 0
    #: Backends a ``kind="protocols"`` campaign compares; any subset of
    #: :func:`repro.coherence.backend.backend_names`. Validated at spec
    #: construction so a typo fails before any run is journalled.
    protocols: Tuple[str, ...] = ("baseline", "widir")
    #: MAC backends crossed over every *wireless* protocol in the matrix
    #: (wired protocols run once regardless); any subset of
    #: :func:`repro.wireless.mac.mac_names`. The default single-point
    #: dimension reproduces every pre-MAC-zoo matrix exactly.
    macs: Tuple[str, ...] = ("brs",)
    #: ``kind="trace"`` only: the recorded trace file the campaign fans
    #: out, its pinned content digest (read from the file when empty),
    #: and how many barrier-safe shards to cut it into (<= 1 replays the
    #: whole trace as a single run per protocol).
    trace_path: str = ""
    trace_id: str = ""
    trace_shards: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}; known: {SWEEP_KINDS}"
            )
        if self.kind == "trace":
            if not self.trace_path:
                raise ValueError(
                    "a kind='trace' campaign needs trace_path"
                )
        elif not self.apps:
            raise ValueError("a campaign needs at least one app")
        if not self.protocols:
            raise ValueError("a campaign needs at least one protocol")
        if not self.macs:
            raise ValueError("a campaign needs at least one MAC")
        for protocol in self.protocols:
            get_backend(protocol)  # raises ValueError naming the known set
        for mac in self.macs:
            get_mac(mac)  # raises ValueError naming the known set

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "apps": list(self.apps),
            "cores": list(self.cores),
            "memops": self.memops,
            "seed": self.seed,
            "thresholds": list(self.thresholds),
            "trace_seed": self.trace_seed,
            "protocols": list(self.protocols),
            "macs": list(self.macs),
            "trace_path": self.trace_path,
            "trace_id": self.trace_id,
            "trace_shards": self.trace_shards,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            apps=tuple(payload["apps"]),
            cores=tuple(payload["cores"]),
            memops=payload.get("memops"),
            seed=payload.get("seed", 42),
            thresholds=tuple(payload.get("thresholds", (2, 3, 4, 5))),
            trace_seed=payload.get("trace_seed", 0),
            # Manifests written before the pluggable-backend refactor
            # predate this key; they always meant the classic pair.
            protocols=tuple(payload.get("protocols", ("baseline", "widir"))),
            # Manifests written before MAC backends were pluggable predate
            # this key; they always meant the paper's BRS discipline.
            macs=tuple(payload.get("macs", ("brs",))),
            trace_path=payload.get("trace_path", ""),
            trace_id=payload.get("trace_id", ""),
            trace_shards=payload.get("trace_shards", 0),
        )

    def build(self) -> Tuple[ExperimentPlan, List[str]]:
        """The run matrix: an :class:`ExperimentPlan` plus aligned labels."""
        plan = ExperimentPlan()
        labels: List[str] = []

        def add(app: str, config) -> None:
            plan.add(app, config, self.memops, self.trace_seed)
            labels.append(label_for(app, config))

        if self.kind == "trace":
            return self._build_trace()
        if self.kind == "protocols":
            for app in self.apps:
                for cores in self.cores:
                    for protocol in self.protocols:
                        base = protocol_config(
                            protocol, num_cores=cores, seed=self.seed
                        )
                        for config in mac_variants(base, self.macs):
                            add(app, config)
        else:  # thresholds (x MACs: the MAC x protocol x threshold matrix)
            for app in self.apps:
                for cores in self.cores:
                    add(app, baseline_config(num_cores=cores, seed=self.seed))
                    for threshold in self.thresholds:
                        base = widir_config(
                            num_cores=cores,
                            max_wired_sharers=threshold,
                            seed=self.seed,
                        )
                        for config in mac_variants(base, self.macs):
                            add(app, config)
        return plan, labels

    def _build_trace(self) -> Tuple[ExperimentPlan, List[str]]:
        """``kind="trace"``: fan one recorded trace across shard windows.

        Shard boundaries come from the barrier-safe planner over the
        trace's footer index — a pure function of the file and
        ``trace_shards`` — so a resumed campaign recomputes the identical
        matrix. The per-shard runs are replayed cold and merge via
        :func:`repro.traces.sharding.merge_window_results`.
        """
        from repro.traces.format import TraceReader
        from repro.traces.sharding import plan_windows

        plan = ExperimentPlan()
        labels: List[str] = []
        with TraceReader(self.trace_path) as reader:
            trace_id = self.trace_id or reader.trace_id
            app = reader.app or "trace"
            num_cores = reader.num_cores
            windows = None
            if self.trace_shards > 1:
                max_chunks = max(
                    reader.num_chunks(core) for core in range(num_cores)
                )
                stride = max(1, max_chunks // self.trace_shards)
                windows = plan_windows(
                    reader, stride, max_windows=self.trace_shards
                )
        stem = Path(self.trace_path).stem or "trace"
        configs = [
            config
            for protocol in self.protocols
            for config in mac_variants(
                protocol_config(protocol, num_cores=num_cores, seed=self.seed),
                self.macs,
            )
        ]
        for config in configs:
            base = label_for(app, config)
            if windows is None:
                plan.add_trace(
                    self.trace_path, config, trace_id=trace_id, app=app
                )
                labels.append(f"{base}/{stem}")
            else:
                for index, window in enumerate(windows):
                    plan.add_trace(
                        self.trace_path,
                        config,
                        trace_id=trace_id,
                        window=tuple(tuple(span) for span in window),
                        app=app,
                    )
                    labels.append(f"{base}/{stem}/shard{index:03d}")
        return plan, labels


# ------------------------------------------------------------------ reports


@dataclass
class CampaignReport:
    """Outcome of one :meth:`Campaign.run` invocation."""

    name: str
    directory: Path
    total: int
    completed: int
    failed: List[Dict] = field(default_factory=list)
    resumed: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    digest: str = ""
    telemetry: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [
            f"campaign {self.name}: {self.completed}/{self.total} runs "
            f"complete ({self.resumed} resumed, {self.cache_hits} cache "
            f"hits, {self.executed} simulated, {self.retries} retries)",
            f"  digest : {self.digest}",
            f"  results: {self.directory / RESULTS_NAME}",
        ]
        if self.failed:
            lines.append(
                f"  DEGRADED: {len(self.failed)} runs failed after retry "
                f"exhaustion (see {PROVENANCE_NAME}):"
            )
            for entry in self.failed:
                lines.append(
                    f"    - {entry['label']}: {entry['reason']} "
                    f"({entry['attempts']} attempts)"
                )
        return "\n".join(lines)


@dataclass
class CampaignStatus:
    """Point-in-time view of a campaign directory (``campaign status``)."""

    name: str
    directory: Path
    total: int
    completed: int
    failed: List[Dict]
    pending: List[str]
    attempts: int
    retries_by_kind: Dict[str, int]
    backoff_seconds: float
    digest: Optional[str]
    journal_bad_lines: List[int]

    @property
    def done(self) -> bool:
        return self.completed == self.total

    def render(self) -> str:
        state = (
            "complete"
            if self.done
            else ("degraded" if self.failed else "in progress")
        )
        lines = [
            f"campaign {self.name} [{state}] — "
            f"{self.completed}/{self.total} runs complete, "
            f"{len(self.failed)} failed, {len(self.pending)} pending",
            f"  attempts  : {self.attempts} "
            f"(retries: {sum(self.retries_by_kind.values())}"
            + (
                " — "
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.retries_by_kind.items())
                )
                if self.retries_by_kind
                else ""
            )
            + ")",
        ]
        if self.backoff_seconds:
            lines.append(f"  backoff   : {self.backoff_seconds:.3f}s total")
        if self.digest:
            lines.append(f"  digest    : {self.digest}")
        if self.journal_bad_lines:
            lines.append(
                f"  WARNING   : journal lines {self.journal_bad_lines} "
                "were corrupt and ignored"
            )
        for entry in self.failed:
            lines.append(
                f"  failed    : {entry['label']} — {entry['reason']} "
                f"({entry['attempts']} attempts)"
            )
        for label in self.pending[:8]:
            lines.append(f"  pending   : {label}")
        if len(self.pending) > 8:
            lines.append(f"  pending   : ... {len(self.pending) - 8} more")
        if not self.done:
            lines.append(
                f"  resume with: repro campaign resume {self.directory}"
            )
        return "\n".join(lines)


# -------------------------------------------------------------- result source


class CampaignResultSource(Executor):
    """An :class:`Executor` that *serves* campaign results, never simulates.

    Figures and sweeps accept ``executor=``; handing them a result source
    renders them from a campaign's completed payloads. Requests whose run
    is missing (still pending, or failed after retry exhaustion) yield
    ``None`` — the partial-rendering path in :mod:`repro.harness.figures`
    — unless ``strict`` is set.
    """

    def __init__(self, payloads: Dict[str, Dict], strict: bool = False):
        super().__init__(workers=1, use_cache=False)
        self._payloads = dict(payloads)
        self.strict = strict
        #: Run keys requested but not available, in request order.
        self.missing: List[str] = []

    def map_runs(self, plan: ExperimentPlan) -> List[Optional[SimulationResult]]:
        results: List[Optional[SimulationResult]] = []
        for request in plan.requests:
            key = run_key(request)
            payload = self._payloads.get(key)
            if payload is None:
                if self.strict:
                    raise CampaignError(
                        f"campaign is missing run {key} "
                        f"({request.app} on {request.config.protocol})"
                    )
                if key not in self.missing:
                    self.missing.append(key)
                results.append(None)
            else:
                results.append(SimulationResult.from_dict(payload))
        return results


# ----------------------------------------------------------------- campaign


class Campaign:
    """One durable campaign directory: create, run, resume, inspect."""

    def __init__(self, directory: Union[str, Path], spec: CampaignSpec):
        self.directory = Path(directory)
        self.spec = spec
        self.plan, self.labels = spec.build()
        self.keys = [run_key(request) for request in self.plan.requests]
        #: label -> run key, insertion-ordered like the plan.
        self.key_for_label: Dict[str, str] = dict(zip(self.labels, self.keys))
        if len(self.key_for_label) != len(self.labels):
            raise CampaignError("campaign labels must be unique")

    # ------------------------------------------------------------ plumbing

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    @property
    def runs_dir(self) -> Path:
        return self.directory / RUNS_DIR

    def _payload_path(self, key: str) -> Path:
        return self.runs_dir / f"{key}.json"

    def _journal(self, record: Dict) -> None:
        append_jsonl(self.journal_path, record)

    # ------------------------------------------------------ create / load

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        spec: CampaignSpec,
        exist_ok: bool = False,
    ) -> "Campaign":
        """Initialize a campaign directory (manifest + journal header)."""
        campaign = cls(directory, spec)
        manifest = campaign.directory / MANIFEST_NAME
        if manifest.exists() and not exist_ok:
            raise CampaignError(
                f"campaign already exists at {campaign.directory} "
                "(use resume, or a fresh --out directory)"
            )
        campaign.directory.mkdir(parents=True, exist_ok=True)
        campaign.runs_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            manifest,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "spec": spec.to_dict(),
                "keys": campaign.key_for_label,
            },
        )
        if not campaign.journal_path.exists():
            campaign._journal(
                {
                    "type": "header",
                    "schema": CHECKPOINT_SCHEMA_VERSION,
                    "name": spec.name,
                }
            )
        return campaign

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Campaign":
        """Open an existing campaign directory, validating its manifest."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError:
            raise CampaignError(
                f"{directory} is not a campaign directory "
                f"(missing {MANIFEST_NAME})"
            ) from None
        except ValueError:
            raise CampaignError(
                f"campaign manifest {manifest_path} is corrupt"
            ) from None
        schema = manifest.get("schema")
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise CampaignError(
                f"campaign schema {schema!r} is not supported "
                f"(expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        campaign = cls(directory, CampaignSpec.from_dict(manifest["spec"]))
        if manifest.get("keys") != campaign.key_for_label:
            raise CampaignError(
                "campaign manifest keys do not match the rebuilt plan — "
                "the code's run-key schema changed underneath this "
                "campaign; re-run it from scratch"
            )
        return campaign

    @classmethod
    def open_or_create(
        cls,
        directory: Union[str, Path],
        spec: Optional[CampaignSpec] = None,
        resume: bool = True,
    ) -> "Campaign":
        """Create the campaign in ``directory`` from ``spec``, or open the
        one already there.

        An existing campaign must have been declared with ``spec`` (when
        one is given), and with ``resume=False`` it is an error. Without
        ``spec`` the directory must already hold a campaign.
        """
        directory = Path(directory)
        if spec is not None and not (directory / MANIFEST_NAME).exists():
            return cls.create(directory, spec)
        campaign = cls.load(directory)
        if spec is not None and campaign.spec != spec:
            raise CampaignError(
                f"campaign at {directory} was declared with a different "
                "spec; use a fresh --out directory"
            )
        if not resume:
            raise CampaignError(
                f"campaign already exists at {directory} (resume it, or "
                "pick a fresh --out directory)"
            )
        return campaign

    # ------------------------------------------------------------- journal

    def _replay_journal(self) -> Tuple[Dict[str, Dict], List[Dict], List[int]]:
        """Replay the checkpoint journal.

        Returns ``(payloads, records, bad_lines)`` where ``payloads`` maps
        completed run keys to their canonical payloads (verified readable —
        a journal entry whose payload file is missing or corrupt is
        *demoted* back to pending, with the corrupt file quarantined).
        """
        records, bad_lines = read_jsonl(self.journal_path)
        payloads: Dict[str, Dict] = {}
        expected = set(self.keys)
        for record in records:
            if record.get("type") != "run":
                continue
            key = record.get("key")
            if key not in expected:
                continue
            if record.get("status") != "ok":
                continue
            if key in payloads:
                continue
            path = self._payload_path(key)
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("payload must be a JSON object")
            except OSError:
                continue  # journaled but payload never landed: re-run
            except ValueError:
                quarantine(path)
                continue
            payloads[key] = payload
        return payloads, records, bad_lines

    def completed_payloads(self) -> Dict[str, Dict]:
        """key -> canonical payload for every durably completed run."""
        payloads, _, _ = self._replay_journal()
        return payloads

    # ----------------------------------------------------------- execution

    def run(
        self,
        supervisor: Optional[WorkerSupervisor] = None,
        executor: Optional[Executor] = None,
        telemetry: Optional[CampaignTelemetry] = None,
        on_event: Optional[Callable[[Dict], None]] = None,
    ) -> CampaignReport:
        """Execute (or resume) the campaign to a terminal state.

        Safe to call again after any interruption — completed runs are
        replayed from the journal, previously *failed* runs get a fresh
        retry budget, and the aggregate artifacts are (re)written
        atomically at the end.
        """
        telemetry = telemetry if telemetry is not None else CampaignTelemetry()
        executor = executor if executor is not None else Executor(workers=1)

        def emit(event: Dict) -> None:
            telemetry.on_event(event)
            if on_event is not None:
                on_event(event)

        emit({"event": "plan", "total": len(self.labels)})
        payloads, _, _ = self._replay_journal()
        resumed = len(payloads)
        for _ in range(resumed):
            emit({"event": "resume-skip"})

        # First-occurrence dedup (a matrix can request one run many times).
        unique: Dict[str, RunRequest] = {}
        for key, request in zip(self.keys, self.plan.requests):
            unique.setdefault(key, request)

        def complete(key: str, payload: Dict, source: str, attempts: int,
                     detail: str = "") -> None:
            # Payload lands durably *before* the journal says "done":
            # a crash between the two re-runs the simulation, never the
            # reverse (a journal entry pointing at nothing is demoted).
            atomic_write_json(self._payload_path(key), payload)
            executor._cache_store(key, payload)
            self._journal(
                {
                    "type": "run",
                    "schema": CHECKPOINT_SCHEMA_VERSION,
                    "key": key,
                    "status": "ok",
                    "source": source,
                    "attempts": attempts,
                }
            )
            payloads[key] = payload

        # Memo-cache pass: anything the PR-1 executor already knows is a
        # completion without spawning a worker.
        cache_hits = 0
        todo: List[Tuple[str, RunRequest]] = []
        for key, request in unique.items():
            if key in payloads:
                continue
            cached = executor._cache_load(key)
            if cached is not None:
                complete(key, cached, "cache", 0)
                emit({"event": "cache-hit", "key": key})
                cache_hits += 1
            else:
                todo.append((key, request))

        # Supervised execution of the remainder.
        executed = 0
        failed: List[Dict] = []
        if todo:
            if supervisor is None:
                supervisor = WorkerSupervisor()
            previous_hook = supervisor.on_event

            def journal_event(event: Dict) -> None:
                if event["event"] in ("retry", "giveup"):
                    self._journal(
                        {
                            "type": "attempt",
                            "schema": CHECKPOINT_SCHEMA_VERSION,
                            "key": event["key"],
                            "attempt": event["attempt"],
                            "status": event.get("status", ""),
                            "detail": event.get("detail", ""),
                            "backoff": event.get("backoff", 0.0),
                        }
                    )
                emit(event)
                if previous_hook is not None:
                    previous_hook(event)

            supervisor.on_event = journal_event
            try:
                outcomes = supervisor.run(todo)
            finally:
                supervisor.on_event = previous_hook
            for key, outcome in outcomes.items():
                if outcome.ok:
                    complete(key, outcome.payload, "simulated",
                             outcome.attempts)
                    executed += 1
                else:
                    self._journal(
                        {
                            "type": "run",
                            "schema": CHECKPOINT_SCHEMA_VERSION,
                            "key": key,
                            "status": "failed",
                            "attempts": outcome.attempts,
                            "detail": outcome.detail,
                        }
                    )
                    failed.append({"key": key, "reason": outcome.detail,
                                   "attempts": outcome.attempts})

        digest = self._write_aggregate(payloads, failed)
        failed_labels = [
            {
                "label": label,
                "key": self.key_for_label[label],
                **{k: v for k, v in entry.items() if k != "key"},
            }
            for label in self.labels
            for entry in failed
            if self.key_for_label[label] == entry["key"]
        ]
        return CampaignReport(
            name=self.spec.name,
            directory=self.directory,
            total=len(self.labels),
            completed=sum(
                1 for label in self.labels
                if self.key_for_label[label] in payloads
            ),
            failed=failed_labels,
            resumed=resumed,
            cache_hits=cache_hits,
            executed=executed,
            retries=telemetry.counters.get("retries.total", 0),
            digest=digest,
            telemetry=telemetry.snapshot(),
        )

    # ----------------------------------------------------------- aggregate

    def _write_aggregate(
        self, payloads: Dict[str, Dict], failed: List[Dict]
    ) -> str:
        """Write ``results.json`` / ``digest.txt`` / ``provenance.json``.

        ``results.json`` is a pure, canonical function of the completed
        payloads — sorted labels, sorted keys, compact separators — so its
        bytes (and hence the digest) are independent of execution order,
        interruptions, retries, and timing.
        """
        completed = {}
        missing = []
        failed_by_key = {entry["key"]: entry for entry in failed}
        for label in sorted(self.labels):
            key = self.key_for_label[label]
            if key in payloads:
                completed[label] = payloads[key]
            else:
                entry = failed_by_key.get(key)
                missing.append(
                    {
                        "label": label,
                        "key": key,
                        "reason": (
                            entry["reason"] if entry else "not yet executed"
                        ),
                        "attempts": entry["attempts"] if entry else 0,
                    }
                )
        results_blob = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.spec.name,
                "results": completed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        atomic_write_text(self.directory / RESULTS_NAME, results_blob)
        digest = hashlib.sha256(results_blob.encode("utf-8")).hexdigest()
        atomic_write_text(self.directory / DIGEST_NAME, digest + "\n")
        atomic_write_json(
            self.directory / PROVENANCE_NAME,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.spec.name,
                "spec": self.spec.to_dict(),
                "total": len(self.labels),
                "completed": sorted(completed),
                "missing": missing,
                "partial": bool(missing),
                "digest": digest,
            },
        )
        return digest

    # -------------------------------------------------------------- status

    def status(self) -> CampaignStatus:
        """Summarize the journal without executing anything."""
        payloads, records, bad_lines = self._replay_journal()
        attempts = 0
        retries_by_kind: Dict[str, int] = {}
        backoff_seconds = 0.0
        failed_by_key: Dict[str, Dict] = {}
        for record in records:
            if record.get("type") == "attempt":
                attempts += 1
                kind = record.get("status") or "error"
                retries_by_kind[kind] = retries_by_kind.get(kind, 0) + 1
                backoff_seconds += float(record.get("backoff", 0.0))
            elif record.get("type") == "run":
                # The terminal successful attempt is not journaled as an
                # "attempt" record; count it here (cache hits cost none).
                attempts += (
                    record.get("status") == "ok"
                    and record.get("source") == "simulated"
                )
                if record.get("status") == "failed":
                    failed_by_key[record["key"]] = record
                elif record.get("status") == "ok":
                    failed_by_key.pop(record.get("key"), None)
        failed = []
        pending = []
        for label in self.labels:
            key = self.key_for_label[label]
            if key in payloads:
                continue
            entry = failed_by_key.get(key)
            if entry is not None:
                failed.append(
                    {
                        "label": label,
                        "key": key,
                        "reason": entry.get("detail", ""),
                        "attempts": entry.get("attempts", 0),
                    }
                )
            else:
                pending.append(label)
        digest_path = self.directory / DIGEST_NAME
        digest = None
        if digest_path.exists():
            digest = digest_path.read_text(encoding="utf-8").strip()
        return CampaignStatus(
            name=self.spec.name,
            directory=self.directory,
            total=len(self.labels),
            completed=sum(
                1 for label in self.labels
                if self.key_for_label[label] in payloads
            ),
            failed=failed,
            pending=pending,
            attempts=attempts,
            retries_by_kind=retries_by_kind,
            backoff_seconds=backoff_seconds,
            digest=digest,
            journal_bad_lines=bad_lines,
        )

    # -------------------------------------------------------------- access

    def result_source(self, strict: bool = False) -> CampaignResultSource:
        """A figures/sweeps-compatible executor over this campaign's runs."""
        return CampaignResultSource(self.completed_payloads(), strict=strict)

    def results(self) -> Dict[str, SimulationResult]:
        """label -> result for every completed run (partial-safe)."""
        payloads = self.completed_payloads()
        out: Dict[str, SimulationResult] = {}
        for label in self.labels:
            payload = payloads.get(self.key_for_label[label])
            if payload is not None:
                out[label] = SimulationResult.from_dict(payload)
        return out

    def stale_tmp_files(self) -> List[Path]:
        """Leftover ``*.tmp.*`` files (should always be empty post-run)."""
        return sorted(iter_stale_tmp(self.directory))


# -------------------------------------------------------------- conveniences


def run_campaign(
    directory: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    resume: bool = True,
    supervisor: Optional[WorkerSupervisor] = None,
    executor: Optional[Executor] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    on_event: Optional[Callable[[Dict], None]] = None,
) -> CampaignReport:
    """Create-or-resume a campaign in ``directory`` and run it.

    With ``spec`` given: creates the campaign if the directory is fresh,
    otherwise (``resume=True``) validates that the on-disk spec matches and
    resumes. Without ``spec``: loads an existing campaign.
    """
    campaign = Campaign.open_or_create(directory, spec, resume=resume)
    return campaign.run(
        supervisor=supervisor,
        executor=executor,
        telemetry=telemetry,
        on_event=on_event,
    )


__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "CampaignResultSource",
    "CampaignSpec",
    "CampaignStatus",
    "RetryPolicy",
    "run_campaign",
]
