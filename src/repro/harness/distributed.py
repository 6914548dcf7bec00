"""Distributed sharded campaign execution.

One asyncio **coordinator** owns a campaign directory and shards its
pending run keys across N **worker agents** — local forked subprocesses
or remote processes speaking the length-prefixed JSON-RPC protocol of
:mod:`repro.harness.protocol` over TCP. The design goals, in order:

1. **Resume identity.** Every completion lands through the PR 5 campaign
   discipline — payload written atomically in ``runs/`` *before* a
   journal record says "ok" — into per-shard journals
   (``journal-shard<k>.jsonl``, single-writer: the coordinator). The
   final aggregate is :meth:`Campaign.finalize`, a pure function of the
   payloads, so the merged ``results.json`` sha256 is bit-for-bit the
   digest a single-box run produces, no matter how many workers, steals,
   kills, or resumes happened in between.
2. **Work stealing.** Keys are round-robined across more shards than
   workers (default ``2×``); each worker drains its affinity shard via
   ``lease`` and, when dry, calls ``steal`` to pull from the deepest
   foreign shard — fast workers finish slow shards' tails instead of
   idling.
3. **Fault tolerance.** A worker's registration connection dropping
   (SIGKILL, OOM) immediately requeues its leases; a heartbeat-stale but
   connected worker (hung) and an overdue lease are requeued by the
   watchdog. Retries ride the same seeded
   :class:`~repro.harness.supervisor.RetryPolicy` ladder as single-box
   campaigns, and retry exhaustion degrades gracefully (journaled
   ``failed``, listed in ``provenance.json``).
4. **Backpressure.** The ``submit`` RPC is token-bucket rate limited and
   bounded by a queue high-water mark (both reject with error 429, which
   clients absorb by backing off); lease grants are capped per worker.

Cache layers: before enqueueing a key the coordinator consults the PR-1
executor memo cache and, when configured, the content-addressed
multi-tenant :class:`~repro.harness.resultstore.ResultStore` — a run any
tenant already computed completes instantly as a ``store`` hit and never
reaches a worker.

Wire protocol methods (shapes in docs/API.md): ``serve`` ``lease``
``steal`` ``result`` ``fail`` ``heartbeat`` ``status`` ``submit`` ``bye``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.config.system import SystemConfig
from repro.harness.campaign import (
    CHECKPOINT_SCHEMA_VERSION,
    Campaign,
    CampaignSpec,
)
from repro.harness.executor import Executor, RunRequest, _simulate, run_key
from repro.harness.ioutils import atomic_write_json
from repro.harness.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_THROTTLED,
    ERR_UNKNOWN_METHOD,
    PROTOCOL_VERSION,
    ProtocolError,
    RpcClient,
    RpcError,
    error_response,
    read_frame_async,
    result_response,
    write_frame_async,
)
from repro.harness.resultstore import ResultStore
from repro.harness.supervisor import (
    RetryPolicy,
    replay_sys_paths,
    start_heartbeat_thread,
)
from repro.obs.campaign import CampaignTelemetry

#: Endpoint advertisement the coordinator drops in the campaign dir.
COORDINATOR_NAME = "coordinator.json"
#: Post-run summary (worker/shard/counter accounting + digest).
SUMMARY_NAME = "distributed.json"

#: Worker-side runner modes the ``serve`` handshake can assign. ``sim``
#: executes the real simulation; ``sleep`` substitutes a deterministic
#: fixed-duration payload — the scheduling-efficiency workload the
#: distributed bench lane uses on low-core boxes (see
#: docs/PERFORMANCE.md).
RUNNER_MODES = ("sim", "sleep")


class DistributedError(RuntimeError):
    """Raised for coordinator misconfiguration (not for worker faults)."""


# ------------------------------------------------------------- token bucket


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, burst up to ``capacity``.

    Gates the ``submit`` RPC; the injected clock keeps tests deterministic.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.capacity, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens


# ------------------------------------------------------------ bookkeeping


@dataclass
class _Entry:
    """One queued run: where it lives and how many attempts it has eaten."""

    key: str
    shard: int  #: home shard (journal + steal accounting)
    attempt: int = 1
    ready_at: float = 0.0  #: monotonic not-before (retry backoff)


@dataclass
class _Lease:
    entry: _Entry
    worker_id: str
    since: float
    stolen: bool = False


@dataclass
class _WorkerState:
    worker_id: str
    pid: int = 0
    shard: int = 0  #: affinity shard
    joined_at: float = 0.0
    last_beat: float = 0.0
    inflight: Dict[str, _Lease] = field(default_factory=dict)
    leases: int = 0
    steals: int = 0
    completed: int = 0
    alive: bool = True
    departed: bool = False  #: said ``bye`` (clean) vs lost (requeue)


@dataclass
class _ShardStats:
    total: int = 0
    done: int = 0
    failed: int = 0
    stolen: int = 0
    retried: int = 0


# -------------------------------------------------------------- coordinator


class Coordinator:
    """Asyncio RPC server sharding one campaign across worker agents.

    All state lives on the event loop thread; handlers are the only
    mutators. Durable writes (payloads, shard journals) are synchronous
    inside handlers — they are small fsynced files, and ordering them
    inside the handler *is* the crash-safety contract.
    """

    def __init__(
        self,
        campaign: Campaign,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: Optional[int] = None,
        expected_workers: int = 2,
        executor: Optional[Executor] = None,
        store: Optional[ResultStore] = None,
        tenant: str = "default",
        retry: Optional[RetryPolicy] = None,
        lease_timeout: float = 120.0,
        heartbeat_interval: float = 0.25,
        heartbeat_grace: float = 40.0,
        max_inflight_per_worker: int = 1,
        submit_rate: float = 16.0,
        submit_burst: float = 8.0,
        max_queue: Optional[int] = None,
        runner: str = "sim",
        runner_seconds: float = 0.0,
        chaos_kill_after: Optional[int] = None,
        telemetry: Optional[CampaignTelemetry] = None,
        on_event: Optional[Callable[[Dict], None]] = None,
        poll_interval: float = 0.25,
    ) -> None:
        if runner not in RUNNER_MODES:
            raise DistributedError(
                f"unknown runner mode {runner!r}; known: {RUNNER_MODES}"
            )
        self.campaign = campaign
        self.host = host
        self.port = port
        self.num_shards = (
            max(1, int(shards))
            if shards is not None
            else max(2, 2 * max(1, expected_workers))
        )
        self.executor = executor if executor is not None else Executor(workers=1)
        # Share the executor's store unless one is given explicitly, so
        # `Executor(store=...)` alone opts a campaign into cross-tenant
        # dedupe + manifest publication.
        self.store = store if store is not None else self.executor.store
        self.tenant = tenant
        self.retry = retry if retry is not None else RetryPolicy()
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.max_inflight = max(1, int(max_inflight_per_worker))
        self.bucket = TokenBucket(submit_rate, submit_burst)
        self.max_queue = max_queue
        self.runner = runner
        self.runner_seconds = runner_seconds
        self.chaos_kill_after = chaos_kill_after
        self.telemetry = (
            telemetry if telemetry is not None else CampaignTelemetry()
        )
        self.on_event = on_event
        self.poll_interval = poll_interval

        # Unique plan: key -> request, first occurrence (campaign order).
        self.requests: Dict[str, RunRequest] = {}
        for key, request in zip(
            campaign.keys, campaign.plan.requests
        ):
            self.requests.setdefault(key, request)
        #: key -> home shard, round-robin in plan order (deterministic).
        self.home_shard: Dict[str, int] = {
            key: index % self.num_shards
            for index, key in enumerate(self.requests)
        }

        self.shards: List[Deque[_Entry]] = [
            deque() for _ in range(self.num_shards)
        ]
        self.shard_stats: List[_ShardStats] = [
            _ShardStats() for _ in range(self.num_shards)
        ]
        for key, shard in self.home_shard.items():
            self.shard_stats[shard].total += 1

        self.payloads: Dict[str, Dict] = {}
        self.failed: List[Dict] = []
        self.attempts: Dict[str, int] = {}
        self.queued: Dict[str, _Entry] = {}
        self.leases: Dict[str, _Lease] = {}
        self.workers: Dict[str, _WorkerState] = {}
        self.local_pids: Dict[int, object] = {}  #: pid -> Process handle

        self.accepted_results = 0
        self._chaos_fired = False
        self._next_worker = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._watchdog: Optional[asyncio.Task] = None
        self._done = asyncio.Event()
        self.digest: str = ""
        self.started_at = 0.0

    # ------------------------------------------------------------- events

    def _emit(self, event: Dict) -> None:
        self.telemetry.on_event(event)
        if self.on_event is not None:
            self.on_event(event)

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind, replay journals, advertise the endpoint; returns it."""
        self.started_at = time.monotonic()
        payloads, records, _ = self.campaign._replay_journal()
        self.payloads.update(payloads)
        self._emit({"event": "plan", "total": len(self.campaign.labels)})
        for _ in range(len(payloads)):
            self._emit({"event": "resume-skip"})
        for shard, stats in enumerate(self.shard_stats):
            stats.done = sum(
                1
                for key in self.payloads
                if self.home_shard.get(key) == shard
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        atomic_write_json(
            self.campaign.directory / COORDINATOR_NAME,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.campaign.spec.name,
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            },
        )
        self._watchdog = asyncio.ensure_future(self._watch())
        self._maybe_finish()
        return self.host, self.port

    async def stop(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain connection handlers while the loop is still alive, so a
        # worker blocked between frames doesn't surface a CancelledError
        # at interpreter shutdown.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()
        # Withdraw the advertised endpoint once the campaign is complete so
        # `campaign status --live` reports "no coordinator" instead of a
        # connection error. An *interrupted* run keeps the file: resume
        # rewrites it, and a stale endpoint is detectable via its pid.
        if self.done:
            try:
                (self.campaign.directory / COORDINATOR_NAME).unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    async def wait_done(self, timeout: Optional[float] = None) -> bool:
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    @property
    def done(self) -> bool:
        return self._done.is_set()

    # ------------------------------------------------------------- filling

    def enqueue_pending(self) -> Dict[str, int]:
        """Queue every non-terminal key (cache/store hits complete now).

        The coordinator's own submission path — ``submit`` RPC calls land
        here too, after rate limiting. Returns accounting for the caller.
        """
        accepted = 0
        cache_hits = 0
        store_hits = 0
        for key in self.requests:
            if key in self.payloads or key in self.queued or key in self.leases:
                continue
            if any(entry["key"] == key for entry in self.failed):
                continue
            # Cache/store payloads are real simulation results; a sleep-mode
            # campaign neither reads nor writes them (its synthetic payloads
            # must not masquerade as — or be poisoned by — sim results).
            cached = (
                self.executor._dir_cache_load(key)
                if self.runner == "sim"
                else None
            )
            source = "cache"
            if (
                cached is None
                and self.store is not None
                and self.runner == "sim"
            ):
                cached = self.store.get(key)
                source = "store"
            if cached is not None:
                self._complete(key, cached, source, attempts=0)
                if source == "store":
                    store_hits += 1
                    self._emit({"event": "store-hit", "key": key})
                else:
                    cache_hits += 1
                    self._emit({"event": "cache-hit", "key": key})
                continue
            entry = _Entry(key=key, shard=self.home_shard[key])
            self.queued[key] = entry
            self.shards[entry.shard].append(entry)
            accepted += 1
        self._emit({"event": "queue-depth", "depth": len(self.queued)})
        self._maybe_finish()
        return {
            "accepted": accepted,
            "cache_hits": cache_hits,
            "store_hits": store_hits,
        }

    # ---------------------------------------------------------- completion

    def _complete(
        self, key: str, payload: Dict, source: str, attempts: int
    ) -> None:
        shard = self.home_shard[key]
        self.campaign.record_completion(
            key, payload, source, attempts, shard=shard
        )
        if self.runner == "sim":
            if self.store is not None:
                # The coordinator's store may not be the executor's (e.g.
                # handed to run_distributed directly); populate the objects
                # plane itself — put() is idempotent if both are wired.
                self.store.put(key, payload)
            self.executor._cache_store(key, payload)
        self.payloads[key] = payload
        self.shard_stats[shard].done += 1
        self._maybe_finish()

    def _fail_terminal(self, key: str, detail: str, attempts: int) -> None:
        shard = self.home_shard[key]
        self.campaign.record_failure(key, detail, attempts, shard=shard)
        self.failed.append(
            {"key": key, "reason": detail, "attempts": attempts}
        )
        self.shard_stats[shard].failed += 1
        self._emit(
            {
                "event": "giveup",
                "key": key,
                "attempt": attempts,
                "status": "failed",
                "detail": detail,
            }
        )
        self._maybe_finish()

    def _terminal_count(self) -> int:
        return len(self.payloads) + len(self.failed)

    def _maybe_finish(self) -> None:
        if self._done.is_set():
            return
        if self._terminal_count() < len(self.requests):
            return
        self.digest = self.campaign.finalize(self.payloads, self.failed)
        if self.store is not None and self.runner == "sim":
            self.store.publish(
                self.tenant,
                self.campaign.spec.name,
                self.campaign.key_for_label,
                self.digest,
            )
        self._write_summary()
        self._done.set()

    def _write_summary(self) -> None:
        atomic_write_json(
            self.campaign.directory / SUMMARY_NAME,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.campaign.spec.name,
                "digest": self.digest,
                "runner": self.runner,
                "shards": [
                    {
                        "shard": index,
                        "total": stats.total,
                        "done": stats.done,
                        "failed": stats.failed,
                        "stolen": stats.stolen,
                        "retried": stats.retried,
                    }
                    for index, stats in enumerate(self.shard_stats)
                ],
                "workers": {
                    state.worker_id: {
                        "leases": state.leases,
                        "steals": state.steals,
                        "completed": state.completed,
                        "lost": not state.departed and not state.alive,
                    }
                    for state in self.workers.values()
                },
                "counters": dict(self.telemetry.counters),
                "wall_seconds": time.monotonic() - self.started_at,
            },
        )

    # ------------------------------------------------------------- requeue

    def _requeue(self, lease: _Lease, status: str, detail: str) -> None:
        """One failed/killed/expired attempt back onto its home shard."""
        key = lease.entry.key
        self.leases.pop(key, None)
        worker = self.workers.get(lease.worker_id)
        if worker is not None:
            worker.inflight.pop(key, None)
        attempt = lease.entry.attempt
        if attempt >= self.retry.max_attempts:
            self._fail_terminal(
                key,
                f"{status}: {detail}" if detail else status,
                attempt,
            )
            return
        delay = self.retry.delay_seconds(key, attempt)
        entry = _Entry(
            key=key,
            shard=lease.entry.shard,
            attempt=attempt + 1,
            ready_at=time.monotonic() + delay,
        )
        self.queued[key] = entry
        self.shards[entry.shard].append(entry)
        self.shard_stats[entry.shard].retried += 1
        self._emit(
            {
                "event": "retry",
                "key": key,
                "attempt": attempt,
                "status": status,
                "detail": detail,
                "backoff": delay,
                "worker": lease.worker_id,
            }
        )
        self._emit({"event": "requeue", "key": key, "worker": lease.worker_id})

    def _lose_worker(self, worker: _WorkerState, reason: str) -> None:
        if not worker.alive:
            return
        worker.alive = False
        if self.done and not worker.inflight:
            # Shutdown race: the campaign finished and the server is going
            # away before the worker's "bye" lands. Not a loss.
            worker.departed = True
        if worker.departed:
            return
        requeued = list(worker.inflight.values())
        for lease in requeued:
            self._requeue(lease, "crashed", reason)
        self._emit(
            {
                "event": "worker-lost",
                "worker": worker.worker_id,
                "requeued": len(requeued),
                "reason": reason,
            }
        )

    # ------------------------------------------------------------ watchdog

    async def _watch(self) -> None:
        """Requeue overdue leases and leases of heartbeat-stale workers."""
        while True:
            await asyncio.sleep(self.poll_interval)
            now = time.monotonic()
            stale_cutoff = self.heartbeat_interval * self.heartbeat_grace
            for worker in list(self.workers.values()):
                if not worker.alive or not worker.inflight:
                    continue
                if (
                    self.heartbeat_interval > 0
                    and now - worker.last_beat > stale_cutoff
                ):
                    self._lose_worker(
                        worker,
                        f"no heartbeat for {now - worker.last_beat:.2f}s",
                    )
            for lease in list(self.leases.values()):
                if now - lease.since > self.lease_timeout:
                    self._requeue(
                        lease,
                        "timeout",
                        f"lease exceeded {self.lease_timeout:.1f}s",
                    )

    # ------------------------------------------------------------- serving

    async def _handle_connection(self, reader, writer) -> None:
        """One TCP peer: serve requests until EOF.

        If the peer registered via ``serve`` on this connection, EOF means
        the worker died (or said ``bye`` first): its leases requeue
        immediately — the fast path that makes SIGKILLed workers cheap.
        """
        bound_worker: Optional[_WorkerState] = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except (ProtocolError, asyncio.CancelledError):
                    break
                if request is None:
                    break
                response, bound = self._dispatch(request, bound_worker)
                if bound is not None:
                    bound_worker = bound
                try:
                    await write_frame_async(writer, response)
                except (ConnectionError, OSError):
                    break
                if request.get("method") == "bye":
                    break
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            if bound_worker is not None:
                self._lose_worker(bound_worker, "connection closed")
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    def _dispatch(
        self, request: Dict, bound_worker: Optional[_WorkerState]
    ) -> Tuple[Dict, Optional[_WorkerState]]:
        request_id = request.get("id")
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return (
                error_response(
                    request_id, ERR_BAD_REQUEST, "params must be an object"
                ),
                None,
            )
        handler = getattr(self, f"_rpc_{method}", None)
        if handler is None:
            return (
                error_response(
                    request_id, ERR_UNKNOWN_METHOD, f"unknown method {method!r}"
                ),
                None,
            )
        try:
            result = handler(params)
        except RpcError as exc:
            return error_response(request_id, exc.code, exc.message), None
        except Exception as exc:  # noqa: BLE001 - surface, don't kill server
            return (
                error_response(
                    request_id, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
                None,
            )
        bound = None
        if method == "serve":
            bound = self.workers.get(result["worker_id"])
        return result_response(request_id, result), bound

    # -- individual methods ----------------------------------------------

    def _worker_or_400(self, params: Dict) -> _WorkerState:
        worker = self.workers.get(str(params.get("worker_id", "")))
        if worker is None:
            raise RpcError(ERR_BAD_REQUEST, "unknown worker_id (serve first)")
        return worker

    def _rpc_serve(self, params: Dict) -> Dict:
        peer_protocol = int(params.get("protocol", 0))
        if peer_protocol != PROTOCOL_VERSION:
            raise RpcError(
                ERR_BAD_REQUEST,
                f"protocol {peer_protocol} != {PROTOCOL_VERSION}",
            )
        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        now = time.monotonic()
        state = _WorkerState(
            worker_id=worker_id,
            pid=int(params.get("pid", 0)),
            shard=(self._next_worker - 1) % self.num_shards,
            joined_at=now,
            last_beat=now,
        )
        self.workers[worker_id] = state
        self._emit({"event": "worker-join", "worker": worker_id})
        runner: Dict[str, object] = {"mode": self.runner}
        if self.runner == "sleep":
            runner["seconds"] = self.runner_seconds
        return {
            "worker_id": worker_id,
            "shard": state.shard,
            "heartbeat_interval": self.heartbeat_interval,
            "campaign": self.campaign.spec.name,
            "runner": runner,
        }

    def _pop_ready(self, shard: int) -> Optional[_Entry]:
        queue = self.shards[shard]
        now = time.monotonic()
        for _ in range(len(queue)):
            entry = queue.popleft()
            if entry.ready_at <= now:
                return entry
            queue.append(entry)  # rotate the backing-off entry to the rear
        return None

    def _grant(
        self, worker: _WorkerState, entry: _Entry, stolen: bool
    ) -> Dict:
        self.queued.pop(entry.key, None)
        lease = _Lease(
            entry=entry,
            worker_id=worker.worker_id,
            since=time.monotonic(),
            stolen=stolen,
        )
        self.leases[entry.key] = lease
        worker.inflight[entry.key] = lease
        worker.leases += 1
        if stolen:
            worker.steals += 1
            self.shard_stats[entry.shard].stolen += 1
        request = self.requests[entry.key]
        self._emit(
            {
                "event": "lease",
                "key": entry.key,
                "worker": worker.worker_id,
                "shard": entry.shard,
                "attempt": entry.attempt,
                "stolen": stolen,
            }
        )
        self._emit({"event": "queue-depth", "depth": len(self.queued)})
        spec: Dict[str, object] = {
            "app": request.app,
            "config": request.config.to_dict(),
            "memops": request.memops,
            "trace_seed": request.trace_seed,
        }
        # Trace-replay fields ride along only when set, so grants from
        # generator-driven campaigns are byte-identical to pre-trace peers
        # (older workers reject trace grants via the run-key cross-check).
        if request.trace_path:
            spec["trace_path"] = request.trace_path
            spec["trace_id"] = request.trace_id
            if request.trace_window is not None:
                spec["trace_window"] = [
                    list(span) for span in request.trace_window
                ]
        return {
            "kind": "run",
            "key": entry.key,
            "shard": entry.shard,
            "attempt": entry.attempt,
            "stolen": stolen,
            "request": spec,
        }

    def _empty(self) -> Dict:
        return {
            "kind": "empty",
            "done": self.done,
            "pending": len(self.queued),
            "leased": len(self.leases),
            "retry_after": 0.05 if not self.done else 0.0,
        }

    def _rpc_lease(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        if len(worker.inflight) >= self.max_inflight:
            raise RpcError(
                ERR_THROTTLED,
                f"worker holds {len(worker.inflight)} leases "
                f"(max {self.max_inflight})",
            )
        entry = self._pop_ready(worker.shard)
        if entry is None:
            return self._empty()
        return self._grant(worker, entry, stolen=False)

    def _rpc_steal(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        if len(worker.inflight) >= self.max_inflight:
            raise RpcError(
                ERR_THROTTLED,
                f"worker holds {len(worker.inflight)} leases "
                f"(max {self.max_inflight})",
            )
        # Deepest foreign shard first; fall back to any shard (including
        # the worker's own — a backoff there may have matured).
        order = sorted(
            range(self.num_shards),
            key=lambda s: (s == worker.shard, -len(self.shards[s])),
        )
        for shard in order:
            entry = self._pop_ready(shard)
            if entry is not None:
                return self._grant(
                    worker, entry, stolen=shard != worker.shard
                )
        return self._empty()

    def _rpc_result(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        key = str(params.get("key", ""))
        payload = params.get("payload")
        if key not in self.requests or not isinstance(payload, dict):
            raise RpcError(ERR_BAD_REQUEST, "result needs a known key + payload")
        lease = self.leases.pop(key, None)
        if lease is not None:
            owner = self.workers.get(lease.worker_id)
            if owner is not None:
                owner.inflight.pop(key, None)
        worker.inflight.pop(key, None)
        if key in self.payloads:
            # Duplicate (lease timed out, another worker already finished,
            # or a zombie reported late): idempotently ignored.
            return {"accepted": False, "done": self.done}
        attempt = lease.entry.attempt if lease is not None else 1
        self.attempts[key] = attempt
        self._complete(key, payload, "simulated", attempt)
        worker.completed += 1
        self.accepted_results += 1
        self._emit(
            {
                "event": "ok",
                "key": key,
                "attempt": attempt,
                "elapsed": float(params.get("elapsed", 0.0)),
                "worker": worker.worker_id,
            }
        )
        self._maybe_chaos_kill(reporting=worker)
        return {"accepted": True, "done": self.done}

    def _rpc_fail(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        key = str(params.get("key", ""))
        lease = worker.inflight.get(key) or self.leases.get(key)
        if lease is None:
            raise RpcError(ERR_BAD_REQUEST, f"no lease for key {key!r}")
        detail = str(params.get("detail", ""))
        terminal = lease.entry.attempt >= self.retry.max_attempts
        self._requeue(lease, "error", detail)
        return {"requeued": not terminal, "giveup": terminal}

    def _rpc_heartbeat(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        return {"ok": True, "done": self.done}

    def _rpc_status(self, params: Dict) -> Dict:
        now = time.monotonic()
        leased_by_shard: Dict[int, int] = {}
        for lease in self.leases.values():
            leased_by_shard[lease.entry.shard] = (
                leased_by_shard.get(lease.entry.shard, 0) + 1
            )
        pending_by_shard: Dict[int, int] = {}
        for entry in self.queued.values():
            pending_by_shard[entry.shard] = (
                pending_by_shard.get(entry.shard, 0) + 1
            )
        return {
            "campaign": self.campaign.spec.name,
            "done": self.done,
            "digest": self.digest,
            "total": len(self.requests),
            "completed": len(self.payloads),
            "failed": len(self.failed),
            "pending": len(self.queued),
            "leased": len(self.leases),
            "shards": [
                {
                    "shard": index,
                    "total": stats.total,
                    "pending": pending_by_shard.get(index, 0),
                    "leased": leased_by_shard.get(index, 0),
                    "done": stats.done,
                    "failed": stats.failed,
                    "stolen": stats.stolen,
                    "retried": stats.retried,
                }
                for index, stats in enumerate(self.shard_stats)
            ],
            "workers": [
                {
                    "worker": state.worker_id,
                    "shard": state.shard,
                    "alive": state.alive,
                    "inflight": len(state.inflight),
                    "leases": state.leases,
                    "steals": state.steals,
                    "completed": state.completed,
                    "beat_age": round(now - state.last_beat, 3),
                }
                for state in self.workers.values()
            ],
            "counters": dict(self.telemetry.counters),
        }

    def _rpc_submit(self, params: Dict) -> Dict:
        if not self.bucket.try_acquire():
            self._emit({"event": "submit-throttled"})
            raise RpcError(ERR_THROTTLED, "submission rate limit exceeded")
        if (
            self.max_queue is not None
            and len(self.queued) >= self.max_queue
        ):
            self._emit({"event": "submit-throttled"})
            raise RpcError(
                ERR_THROTTLED,
                f"queue high-water mark reached ({len(self.queued)} "
                f">= {self.max_queue})",
            )
        keys = params.get("keys")
        if keys is not None and not isinstance(keys, list):
            raise RpcError(ERR_BAD_REQUEST, "keys must be a list")
        if keys is None:
            accounting = self.enqueue_pending()
        else:
            unknown = [key for key in keys if key not in self.requests]
            if unknown:
                raise RpcError(
                    ERR_BAD_REQUEST,
                    f"{len(unknown)} submitted keys are not in this "
                    f"campaign's plan (first: {unknown[0][:16]}...)",
                )
            accounting = {"accepted": 0, "cache_hits": 0, "store_hits": 0}
            wanted = set(keys)
            # Reuse the full fill path, then report only the wanted subset
            # as accepted; per-key submission exists for tests and partial
            # refills, and over-accepting idempotent keys is harmless.
            before = set(self.queued)
            full = self.enqueue_pending()
            accounting["cache_hits"] = full["cache_hits"]
            accounting["store_hits"] = full["store_hits"]
            accounting["accepted"] = len(
                (set(self.queued) - before) & wanted
            )
        self._emit({"event": "submit", "accepted": accounting["accepted"]})
        return dict(accounting, done=self.done, queued=len(self.queued))

    def _rpc_bye(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.departed = True
        worker.alive = False
        return {"ok": True}

    # --------------------------------------------------------------- chaos

    def track_local_worker(self, pid: int, process: object) -> None:
        self.local_pids[pid] = process

    def _maybe_chaos_kill(self, reporting: _WorkerState) -> None:
        """SIGKILL one local worker holding a lease (deterministic drills).

        Fires once, after ``chaos_kill_after`` accepted results, against a
        worker that currently holds a lease — guaranteeing the CI smoke
        job observes a requeue + retry, not a lucky clean finish.
        """
        if (
            self.chaos_kill_after is None
            or self._chaos_fired
            or self.accepted_results < self.chaos_kill_after
        ):
            return
        victims = [
            state
            for state in self.workers.values()
            if state.alive
            and state.inflight
            and state.pid in self.local_pids
            and state.worker_id != reporting.worker_id
        ] or [
            state
            for state in self.workers.values()
            if state.alive and state.inflight and state.pid in self.local_pids
        ]
        if not victims:
            return
        victim = victims[0]
        self._chaos_fired = True
        self._emit(
            {
                "event": "chaos-kill",
                "worker": victim.worker_id,
                "pid": victim.pid,
            }
        )
        try:
            os.kill(victim.pid, signal.SIGKILL)
        except OSError:
            pass


# ------------------------------------------------------------ worker agent


def _connect_with_retry(
    host: str, port: int, deadline: float = 10.0
) -> RpcClient:
    """Connect, retrying while the coordinator is still binding."""
    client = RpcClient(host, port)
    give_up = time.monotonic() + deadline
    while True:
        try:
            return client.connect()
        except OSError:
            if time.monotonic() >= give_up:
                raise
            time.sleep(0.05)


class WorkerAgent:
    """Synchronous lease/execute/report loop against one coordinator.

    Two connections: the registration connection carries the request
    loop (its EOF is the coordinator's fast death-detection path), and
    the heartbeat thread owns a second connection so beats never
    interleave with a lease in flight.
    """

    def __init__(self, host: str, port: int, name: str = "") -> None:
        self.host = host
        self.port = port
        self.name = name
        self.worker_id = ""
        self.completed = 0
        self.stolen = 0

    # -- runner ----------------------------------------------------------

    @staticmethod
    def _execute(grant: Dict, runner: Dict) -> Tuple[Dict, float]:
        mode = runner.get("mode", "sim")
        if mode == "sleep":
            seconds = float(runner.get("seconds", 0.0))
            time.sleep(seconds)
            # Deterministic payload: digests of sleep-mode campaigns are
            # still a pure function of the plan, so worker-count A/B runs
            # in the bench lane can assert digest identity too.
            return (
                {
                    "schema": CHECKPOINT_SCHEMA_VERSION,
                    "mode": "sleep",
                    "key": grant["key"],
                },
                seconds,
            )
        spec = grant["request"]
        window = spec.get("trace_window")
        request = RunRequest(
            app=spec["app"],
            config=SystemConfig.from_dict(spec["config"]),
            memops=int(spec["memops"]),
            trace_seed=int(spec.get("trace_seed", 0)),
            trace_path=str(spec.get("trace_path", "")),
            trace_id=str(spec.get("trace_id", "")),
            trace_window=(
                tuple((int(a), int(b)) for a, b in window)
                if window is not None
                else None
            ),
        )
        expected = run_key(request)
        if expected != grant["key"]:
            raise DistributedError(
                f"request reconstruction drifted: {expected[:12]} != "
                f"{grant['key'][:12]} (schema skew between peers?)"
            )
        return _simulate(request)

    # -- main loop -------------------------------------------------------

    def run(self) -> int:
        """Serve until the campaign is done; returns runs completed."""
        client = _connect_with_retry(self.host, self.port)
        hello = client.call(
            "serve",
            worker=self.name,
            pid=os.getpid(),
            protocol=PROTOCOL_VERSION,
        )
        self.worker_id = hello["worker_id"]
        runner = hello.get("runner") or {"mode": "sim"}
        heartbeat_interval = float(hello.get("heartbeat_interval", 0.25))

        beat_client = _connect_with_retry(self.host, self.port)
        stop_heartbeat = start_heartbeat_thread(
            lambda: beat_client.call("heartbeat", worker_id=self.worker_id),
            heartbeat_interval,
        )
        try:
            while True:
                grant = client.call("lease", worker_id=self.worker_id)
                if grant.get("kind") == "empty":
                    if grant.get("done"):
                        break
                    grant = client.call("steal", worker_id=self.worker_id)
                    if grant.get("kind") == "empty":
                        if grant.get("done"):
                            break
                        time.sleep(float(grant.get("retry_after", 0.05)))
                        continue
                    self.stolen += int(bool(grant.get("stolen")))
                key = grant["key"]
                try:
                    payload, elapsed = self._execute(grant, runner)
                except Exception as exc:  # noqa: BLE001 - report, continue
                    client.call(
                        "fail",
                        worker_id=self.worker_id,
                        key=key,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                    continue
                reply = client.call(
                    "result",
                    worker_id=self.worker_id,
                    key=key,
                    payload=payload,
                    elapsed=elapsed,
                )
                self.completed += 1
                if reply.get("done"):
                    break
            try:
                client.call("bye", worker_id=self.worker_id)
            except (RpcError, ProtocolError, OSError):
                pass
        finally:
            stop_heartbeat()
            beat_client.close()
            client.close()
        return self.completed


def _local_worker_main(
    host: str, port: int, sys_paths: List[str], name: str
) -> None:  # pragma: no cover - child process
    replay_sys_paths(sys_paths)
    try:
        WorkerAgent(host, port, name=name).run()
    except (RpcError, ProtocolError, OSError):
        # Coordinator gone (or we were raced by shutdown): nothing to do.
        pass


# ----------------------------------------------------------------- reports


@dataclass
class DistributedReport:
    """Outcome of one distributed campaign execution."""

    name: str
    directory: Path
    total: int
    completed: int
    failed: List[Dict]
    digest: str
    workers: int
    shards: int
    stolen: int
    retried: int
    store_hits: int
    wall_seconds: float
    summary: Dict = field(default_factory=dict)
    telemetry: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [
            f"campaign {self.name}: {self.completed}/{self.total} runs "
            f"complete across {self.workers} workers / {self.shards} shards "
            f"({self.stolen} stolen, {self.retried} requeued, "
            f"{self.store_hits} store hits) in {self.wall_seconds:.2f}s",
            f"  digest : {self.digest}",
            f"  summary: {self.directory / SUMMARY_NAME}",
        ]
        if self.failed:
            lines.append(
                f"  DEGRADED: {len(self.failed)} runs failed after retry "
                "exhaustion"
            )
        return "\n".join(lines)


# ------------------------------------------------------------------ facade


def run_distributed(
    directory: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    workers: int = 2,
    shards: Optional[int] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    executor: Optional[Executor] = None,
    store: Optional[ResultStore] = None,
    tenant: str = "default",
    retry: Optional[RetryPolicy] = None,
    lease_timeout: float = 120.0,
    heartbeat_interval: float = 0.25,
    heartbeat_grace: float = 40.0,
    submit_rate: float = 16.0,
    submit_burst: float = 8.0,
    max_queue: Optional[int] = None,
    runner: str = "sim",
    runner_seconds: float = 0.0,
    chaos_kill_after: Optional[int] = None,
    timeout: Optional[float] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    on_event: Optional[Callable[[Dict], None]] = None,
) -> DistributedReport:
    """Create-or-resume a campaign and drive it over ``workers`` agents.

    ``workers`` local agents are forked; ``workers=0`` serves remote
    agents only (the ``repro campaign serve`` path — pair it with
    ``repro campaign worker --connect``). Blocks until every run is
    terminal, then merges the shard journals into the single-box-identical
    aggregate and returns the report.
    """
    import multiprocessing
    import sys

    campaign = Campaign.open_or_create(directory, spec)
    telemetry = telemetry if telemetry is not None else CampaignTelemetry()
    coordinator = Coordinator(
        campaign,
        host=host,
        port=port,
        shards=shards,
        expected_workers=max(1, workers),
        executor=executor,
        store=store,
        tenant=tenant,
        retry=retry,
        lease_timeout=lease_timeout,
        heartbeat_interval=heartbeat_interval,
        heartbeat_grace=heartbeat_grace,
        submit_rate=submit_rate,
        submit_burst=submit_burst,
        max_queue=max_queue,
        runner=runner,
        runner_seconds=runner_seconds,
        chaos_kill_after=chaos_kill_after,
        telemetry=telemetry,
        on_event=on_event,
    )

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    processes: List[object] = []
    started = time.perf_counter()

    async def _main() -> bool:
        bind_host, bind_port = await coordinator.start()
        for index in range(workers):
            process = context.Process(
                target=_local_worker_main,
                args=(bind_host, bind_port, list(sys.path), f"local{index}"),
                daemon=True,
            )
            process.start()
            processes.append(process)
            coordinator.track_local_worker(process.pid, process)
        coordinator.enqueue_pending()
        finished = await coordinator.wait_done(timeout)
        await coordinator.stop()
        return finished

    try:
        finished = asyncio.run(_main())
    finally:
        deadline = time.monotonic() + 5.0
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(1.0)
    if not finished:
        raise DistributedError(
            f"campaign did not reach a terminal state within {timeout}s"
        )

    wall = time.perf_counter() - started
    summary = {}
    summary_path = campaign.directory / SUMMARY_NAME
    if summary_path.exists():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    counters = telemetry.counters
    return DistributedReport(
        name=campaign.spec.name,
        directory=campaign.directory,
        total=len(coordinator.requests),
        completed=len(coordinator.payloads),
        failed=list(coordinator.failed),
        digest=coordinator.digest,
        workers=max(workers, len(coordinator.workers)),
        shards=coordinator.num_shards,
        stolen=sum(stats.stolen for stats in coordinator.shard_stats),
        retried=sum(stats.retried for stats in coordinator.shard_stats),
        store_hits=counters.get("runs.store_hits", 0),
        wall_seconds=wall,
        summary=summary,
        telemetry=telemetry.snapshot(),
    )


# --------------------------------------------------------------- live status


def coordinator_endpoint(
    directory: Union[str, Path]
) -> Optional[Tuple[str, int]]:
    """Read the endpoint a live coordinator advertised, if any."""
    path = Path(directory) / COORDINATOR_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return str(payload["host"]), int(payload["port"])
    except (OSError, ValueError, KeyError):
        return None


def live_status(host: str, port: int, timeout: float = 3.0) -> Dict:
    """One ``status`` RPC against a running coordinator."""
    client = RpcClient(host, port, timeout=timeout)
    with client:
        return client.call("status")


def render_live_status(status: Dict) -> str:
    """Human-readable live coordinator status (``repro campaign status``)."""
    state = "complete" if status.get("done") else "running"
    lines = [
        f"campaign {status.get('campaign')} [live, {state}] — "
        f"{status.get('completed')}/{status.get('total')} runs complete, "
        f"{status.get('failed')} failed, {status.get('pending')} queued, "
        f"{status.get('leased')} leased",
    ]
    for shard in status.get("shards", []):
        lines.append(
            f"  shard {shard['shard']}: {shard['done']}/{shard['total']} done"
            f", {shard['leased']} leased, {shard['pending']} pending, "
            f"{shard['stolen']} stolen, {shard['retried']} retried"
            + (f", {shard['failed']} failed" if shard.get("failed") else "")
        )
    for worker in status.get("workers", []):
        lines.append(
            f"  worker {worker['worker']}"
            f" [{'alive' if worker['alive'] else 'gone'}]"
            f": {worker['completed']} done, {worker['steals']} steals, "
            f"{worker['inflight']} inflight, beat {worker['beat_age']:.2f}s ago"
        )
    if status.get("digest"):
        lines.append(f"  digest : {status['digest']}")
    return "\n".join(lines)


__all__ = [
    "COORDINATOR_NAME",
    "Coordinator",
    "DistributedError",
    "DistributedReport",
    "RUNNER_MODES",
    "SUMMARY_NAME",
    "TokenBucket",
    "WorkerAgent",
    "coordinator_endpoint",
    "live_status",
    "render_live_status",
    "run_distributed",
]
