"""Supervised worker pool with timeouts, heartbeats, and seeded retries.

The :class:`~repro.harness.executor.Executor` fans simulations out over a
plain ``multiprocessing.Pool`` — fine for interactive figure runs, fatal
for multi-hour campaigns: one worker crash, OOM kill, or hang takes the
whole sweep with it. This module supplies the fault-tolerant execution
layer the campaign runner (:mod:`repro.harness.campaign`) sits on:

* each worker slot is one **long-lived** child process that serves
  ``(request, fault)`` messages over a duplex pipe until it is sent
  ``None``. Reuse keeps what a child loaded (numpy, the trace memo) warm
  across runs. A run that ends ``ok`` or ``err`` returns its child to the
  idle pool; a crashed, hung, stalled or timed-out child is reaped, and
  the next launch forks a fresh one, so a fault stays isolated to the
  run that hit it. A child whose supervisor dies exits on its own;
* children emit **heartbeats** on the same pipe while a run executes; the
  supervisor distinguishes a *crashed* worker (process died), a
  *timed-out* worker (wall-clock budget exceeded while still beating),
  and a *hung* worker (alive but silent). Every send a child makes holds
  one lock, so a beat never lands inside a large result frame;
* failed runs are **retried** with seeded exponential backoff. The backoff
  engine is literally the protocol's own
  :class:`~repro.wireless.mac.BackoffPolicy` — the BRS MAC discipline the
  paper applies to wireless collisions, applied here to harness faults —
  driven by a :class:`~repro.engine.rng.DeterministicRng` split per run
  key, so retry schedules are reproducible;
* after ``max_attempts`` the run is reported as *failed* rather than
  raising, letting the campaign layer degrade gracefully.

Fault injection (:class:`ScriptedFaults`, :class:`SeededFaults`) is part of
the public surface: the kill/resume tests and the ``campaign-smoke`` CI job
drive the supervisor through crash/hang/stall/error schedules and assert
the retry ladder heals them.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.rng import DeterministicRng
from repro.harness.executor import RunRequest, _simulate
from repro.wireless.mac import BackoffPolicy

#: Fault kinds a worker can be told to exhibit (tests / smoke campaigns).
FAULT_KINDS = ("crash", "hang", "stall", "error")

#: Exit code of an intentionally crashed worker (diagnostics only).
CRASH_EXIT_CODE = 173


# ------------------------------------------------------------- retry policy


class RetryPolicy:
    """Seeded exponential-backoff retry schedule, one stream per run key.

    The delay after the ``n``-th consecutive failure of a run is drawn by a
    :class:`~repro.wireless.mac.BackoffPolicy` (uniform in a window that
    doubles up to ``base * 2**max_exponent`` *backoff units*), from an RNG
    stream split off ``seed`` by the run key — identical inputs always
    yield the identical retry schedule, and no run's draws perturb
    another's.

    ``unit`` converts abstract backoff cycles into seconds; tests set it to
    ``0`` for instant retries.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base: int = 2,
        max_exponent: int = 5,
        unit: float = 0.05,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base = base
        self.max_exponent = max_exponent
        self.unit = unit
        self.seed = seed
        self._root = DeterministicRng(seed)
        self._policies: Dict[str, BackoffPolicy] = {}

    def _policy_for(self, key: str) -> BackoffPolicy:
        policy = self._policies.get(key)
        if policy is None:
            policy = BackoffPolicy(
                self.base, self.max_exponent, self._root.split(key)
            )
            self._policies[key] = policy
        return policy

    def delay_seconds(self, key: str, failures: int) -> float:
        """Backoff before retry number ``failures`` of run ``key``."""
        return self._policy_for(key).delay_for_attempt(failures) * self.unit

    def describe(self) -> Dict:
        return {
            "max_attempts": self.max_attempts,
            "base": self.base,
            "max_exponent": self.max_exponent,
            "unit": self.unit,
            "seed": self.seed,
        }


# ---------------------------------------------------------- fault injection


class ScriptedFaults:
    """Exact fault schedule: ``{(key_prefix, attempt): kind}``.

    Key prefixes let tests script faults without computing full run keys.
    """

    def __init__(self, script: Dict[Tuple[str, int], str]) -> None:
        for (_, _), kind in script.items():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.script = dict(script)

    def __call__(self, key: str, attempt: int) -> Optional[str]:
        for (prefix, when), kind in self.script.items():
            if attempt == when and key.startswith(prefix):
                return kind
        return None


class SeededFaults:
    """Deterministic random faults, for smoke campaigns and CLI demos.

    Each ``(key, attempt)`` pair draws once from a split RNG stream, so the
    fault pattern is a pure function of ``seed`` — rerunning a campaign
    with the same injection seed reproduces the same crashes. Faults are
    only injected on attempts ``<= max_faulty_attempts`` so the retry
    ladder always heals eventually.
    """

    def __init__(
        self,
        rates: Dict[str, float],
        seed: int = 0,
        max_faulty_attempts: int = 1,
    ) -> None:
        for kind in rates:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.rates = {k: float(v) for k, v in rates.items() if v > 0}
        self.seed = seed
        self.max_faulty_attempts = max_faulty_attempts
        self._root = DeterministicRng(seed)

    def __call__(self, key: str, attempt: int) -> Optional[str]:
        if attempt > self.max_faulty_attempts or not self.rates:
            return None
        draw = self._root.split(f"{key}#{attempt}").random()
        threshold = 0.0
        for kind in FAULT_KINDS:  # fixed order => stable partition
            rate = self.rates.get(kind, 0.0)
            if rate <= 0:
                continue
            threshold += rate
            if draw < threshold:
                return kind
        return None

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "SeededFaults":
        """Parse a CLI spec like ``"crash=0.2,hang=0.1"``."""
        rates: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, value = part.partition("=")
            rates[kind.strip()] = float(value) if value else 1.0
        return cls(rates, seed=seed)


# -------------------------------------------------------------- worker side


def replay_sys_paths(paths: List[str]) -> None:
    """Replay the parent's ``sys.path`` into a child process.

    Fork inherits the path, spawn does not; replaying makes both work when
    the repo runs uninstalled via ``PYTHONPATH=src``.
    """
    import sys

    for entry in reversed(paths):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def start_heartbeat_thread(
    beat: Callable[[], None],
    interval: float,
) -> Callable[[], None]:
    """Run ``beat`` every ``interval`` seconds on a daemon thread.

    Returns a stopper that also joins the thread, so no beat is sent after
    it returns. ``beat`` raising stops the loop silently — a closed pipe
    means the supervisor already treats this process as gone, so there
    is nobody left to tell.
    """
    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval):
            try:
                beat()
            except Exception:  # noqa: BLE001 - transport gone: listener too
                return

    if interval <= 0:
        return stop.set
    thread = threading.Thread(target=loop, daemon=True)
    thread.start()

    def stopper() -> None:
        stop.set()
        thread.join()

    return stopper


def _exit_with_parent(parent_pid: int, interval: float = 0.5) -> None:
    """Exit this process soon after ``parent_pid`` stops being its parent.

    The pipe cannot tell a child that its supervisor died: forked siblings
    keep copies of the supervisor's pipe ends, so ``recv`` never sees EOF
    and a large ``send`` can block for good. A SIGKILLed campaign would
    leave its children running forever.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(interval)
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


def _worker_main(
    conn,
    heartbeat_interval: float,
    sys_paths: List[str],
    parent_pid: int,
) -> None:  # pragma: no cover - child process
    """Child entry: serve ``(request, fault)`` jobs until sent ``None``.

    Each job runs one simulation (or injected fault) under a heartbeat
    thread and answers ``("ok", payload, elapsed)`` or ``("err", detail)``.
    The heartbeat thread and this loop share ``conn``; one lock around
    every send keeps their frames whole (a payload over 16 KiB is written
    as a header and a body, and a beat between the two corrupts both).
    """
    replay_sys_paths(sys_paths)
    _exit_with_parent(parent_pid)
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                return  # supervisor gone
            if job is None:
                return
            request, fault = job
            if fault == "crash":
                os._exit(CRASH_EXIT_CODE)
            stop_heartbeat = start_heartbeat_thread(
                lambda: send(("hb", time.monotonic())), heartbeat_interval
            )
            try:
                if fault == "stall":
                    # Silence, not a missing result, is what the
                    # supervisor must detect.
                    stop_heartbeat()
                if fault in ("hang", "stall"):
                    time.sleep(3600.0)  # killed by the supervisor
                if fault == "error":
                    reply = ("err", "injected worker error")
                else:
                    payload, elapsed = _simulate(request)
                    reply = ("ok", payload, elapsed)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                reply = ("err", f"{type(exc).__name__}: {exc}")
            finally:
                stop_heartbeat()
            try:
                send(reply)
            except OSError:
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------- outcomes


@dataclass
class AttemptRecord:
    """One observed attempt of one run (journaled by the campaign layer)."""

    attempt: int
    status: str  #: ok | crashed | timeout | hung | error
    detail: str = ""
    elapsed: float = 0.0
    backoff: float = 0.0  #: seconds slept before the *next* attempt


@dataclass
class RunOutcome:
    """Terminal state of one supervised run."""

    key: str
    status: str  #: ok | failed
    attempts: int
    payload: Optional[Dict] = None
    detail: str = ""
    history: List[AttemptRecord] = field(default_factory=list)
    sim_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Pending:
    key: str
    request: RunRequest
    attempt: int
    ready_at: float


@dataclass
class _Child:
    """One long-lived worker process and the parent's end of its pipe."""

    process: object
    conn: object


@dataclass
class _Active:
    key: str
    request: RunRequest
    attempt: int
    child: _Child
    started: float
    last_beat: float


# --------------------------------------------------------------- supervisor


class WorkerSupervisor:
    """Run a batch of :class:`RunRequest` s under fault supervision.

    Parameters
    ----------
    workers:
        Maximum concurrently live child processes. Each child serves runs
        one after another until :meth:`run` returns or a fault reaps it.
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = unlimited).
    heartbeat_interval:
        Cadence of child heartbeats; ``0`` disables hang detection.
    heartbeat_grace:
        A child silent for ``heartbeat_interval * heartbeat_grace`` seconds
        is declared hung and killed.
    retry:
        :class:`RetryPolicy`; defaults to 3 attempts with seeded backoff.
    faults:
        Optional callable ``(key, attempt) -> fault kind or None`` applied
        to each launch (:class:`ScriptedFaults` / :class:`SeededFaults`).
    on_event:
        Optional callback receiving progress dicts (``launch``, ``ok``,
        ``retry``, ``giveup``) — the campaign layer journals these and
        feeds the observability counters. ``launch`` names the serving
        child's ``pid``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_grace: float = 40.0,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Callable[[str, int], Optional[str]]] = None,
        on_event: Optional[Callable[[Dict], None]] = None,
        poll_interval: float = 0.02,
    ) -> None:
        from repro.harness.executor import _default_workers

        self.workers = (
            _default_workers() if workers is None else max(1, int(workers))
        )
        self.timeout = timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.on_event = on_event
        self.poll_interval = poll_interval

    # ------------------------------------------------------------ plumbing

    def _emit(self, event: Dict) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return multiprocessing.get_context()

    def _fork(self, ctx) -> _Child:
        import sys

        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.heartbeat_interval,
                list(sys.path),
                os.getpid(),
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Child(process, parent_conn)

    def _launch(self, ctx, item: _Pending, idle: List[_Child]) -> _Active:
        """Hand ``item`` to an idle child, forking one if none is idle."""
        fault = self.faults(item.key, item.attempt) if self.faults else None
        job = (item.request, fault)
        child = idle.pop() if idle else self._fork(ctx)
        try:
            child.conn.send(job)
        except OSError:  # the idle child died since its last run
            self._reap(child)
            child = self._fork(ctx)
            child.conn.send(job)
        now = time.monotonic()
        self._emit(
            {
                "event": "launch",
                "key": item.key,
                "attempt": item.attempt,
                "fault": fault,
                "pid": child.process.pid,
            }
        )
        return _Active(
            key=item.key,
            request=item.request,
            attempt=item.attempt,
            child=child,
            started=now,
            last_beat=now,
        )

    @staticmethod
    def _reap(child: _Child) -> None:
        """Kill (if needed) and join a child, closing its pipe."""
        process = child.process
        if process.is_alive():
            process.terminate()
            process.join(0.5)
        if process.is_alive():  # pragma: no cover - terminate was enough
            process.kill()
            process.join(0.5)
        try:
            child.conn.close()
        except OSError:
            pass

    def _shutdown(self, idle: List[_Child]) -> None:
        """Tell every idle child to exit, then reap any that linger."""
        for child in idle:
            try:
                child.conn.send(None)
            except OSError:
                pass
        for child in idle:
            child.process.join(1.0)
            self._reap(child)

    # ------------------------------------------------------------ main loop

    def run(
        self, todo: List[Tuple[str, RunRequest]]
    ) -> Dict[str, RunOutcome]:
        """Supervise ``todo`` to terminal outcomes; returns key -> outcome.

        Never raises for worker-side faults: every run ends ``ok`` (with a
        canonical payload) or ``failed`` (with its attempt history), and
        the caller decides how to degrade. Every child is stopped before
        this returns.
        """
        ctx = self._context()
        idle: List[_Child] = []
        active: Dict[int, _Active] = {}
        try:
            return self._supervise(ctx, todo, idle, active)
        finally:
            for run in active.values():
                self._reap(run.child)
            self._shutdown(idle)

    def _supervise(
        self,
        ctx,
        todo: List[Tuple[str, RunRequest]],
        idle: List[_Child],
        active: Dict[int, _Active],
    ) -> Dict[str, RunOutcome]:
        from multiprocessing import connection as mp_connection

        outcomes: Dict[str, RunOutcome] = {}
        history: Dict[str, List[AttemptRecord]] = {key: [] for key, _ in todo}
        pending = deque(
            _Pending(key, request, 1, 0.0) for key, request in todo
        )

        def finish_ok(run: _Active, payload: Dict, elapsed: float) -> None:
            history[run.key].append(
                AttemptRecord(run.attempt, "ok", elapsed=elapsed)
            )
            outcomes[run.key] = RunOutcome(
                key=run.key,
                status="ok",
                attempts=run.attempt,
                payload=payload,
                history=history[run.key],
                sim_seconds=elapsed,
            )
            self._emit(
                {
                    "event": "ok",
                    "key": run.key,
                    "attempt": run.attempt,
                    "elapsed": elapsed,
                }
            )

        def finish_failure(run: _Active, status: str, detail: str) -> None:
            elapsed = time.monotonic() - run.started
            record = AttemptRecord(run.attempt, status, detail, elapsed)
            history[run.key].append(record)
            if run.attempt >= self.retry.max_attempts:
                outcomes[run.key] = RunOutcome(
                    key=run.key,
                    status="failed",
                    attempts=run.attempt,
                    detail=f"{status}: {detail}" if detail else status,
                    history=history[run.key],
                )
                self._emit(
                    {
                        "event": "giveup",
                        "key": run.key,
                        "attempt": run.attempt,
                        "status": status,
                        "detail": detail,
                    }
                )
                return
            delay = self.retry.delay_seconds(run.key, run.attempt)
            record.backoff = delay
            pending.append(
                _Pending(
                    run.key,
                    run.request,
                    run.attempt + 1,
                    time.monotonic() + delay,
                )
            )
            self._emit(
                {
                    "event": "retry",
                    "key": run.key,
                    "attempt": run.attempt,
                    "status": status,
                    "detail": detail,
                    "backoff": delay,
                }
            )

        def fail(pid: int, status: str, detail: str) -> None:
            """A faulted attempt: its child is reaped, never reused."""
            run = active.pop(pid)
            self._reap(run.child)
            finish_failure(run, status, detail)

        while pending or active:
            now = time.monotonic()

            # Launch every ready pending run into free slots.
            if pending and len(active) < self.workers:
                still_waiting = deque()
                while pending and len(active) < self.workers:
                    item = pending.popleft()
                    if item.ready_at > now:
                        still_waiting.append(item)
                        continue
                    run = self._launch(ctx, item, idle)
                    active[run.child.process.pid] = run
                pending.extendleft(reversed(still_waiting))

            if not active:
                # Everything left is backing off; sleep until the earliest.
                wake = min(item.ready_at for item in pending)
                time.sleep(max(0.0, min(wake - now, 0.25)))
                continue

            # Wait for messages from any child (bounded poll so timeout and
            # heartbeat checks still run when everyone is silent).
            by_conn = {id(run.child.conn): pid for pid, run in active.items()}
            try:
                ready = mp_connection.wait(
                    [run.child.conn for run in active.values()],
                    timeout=self.poll_interval,
                )
            except OSError:  # pragma: no cover - racing child death
                ready = []

            for conn in ready:
                pid = by_conn[id(conn)]
                run = active[pid]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Pipe closed without a result: the child crashed.
                    run.child.process.join(0.5)
                    code = run.child.process.exitcode
                    fail(pid, "crashed", f"worker exited with code {code}")
                    continue
                kind = message[0]
                if kind == "hb":
                    run.last_beat = time.monotonic()
                elif kind == "ok":
                    idle.append(active.pop(pid).child)
                    finish_ok(run, message[1], message[2])
                elif kind == "err":
                    idle.append(active.pop(pid).child)
                    finish_failure(run, "error", message[1])

            # Enforce wall-clock and heartbeat budgets on the survivors.
            now = time.monotonic()
            for pid, run in list(active.items()):
                process = run.child.process
                if not process.is_alive() and not run.child.conn.poll():
                    fail(
                        pid, "crashed",
                        f"worker exited with code {process.exitcode}",
                    )
                elif (
                    self.timeout is not None
                    and now - run.started > self.timeout
                ):
                    fail(
                        pid, "timeout",
                        f"exceeded {self.timeout:.1f}s wall-clock budget",
                    )
                elif (
                    self.heartbeat_interval > 0
                    and now - run.last_beat
                    > self.heartbeat_interval * self.heartbeat_grace
                ):
                    fail(
                        pid, "hung",
                        f"no heartbeat for {now - run.last_beat:.2f}s",
                    )

        return outcomes
