"""Parallel experiment executor with on-disk memoization.

The evaluation harness regenerates the paper's figures from grids of
independent ``(app, machine, memops, trace_seed)`` simulations. Those runs
are embarrassingly parallel (like the SST parallel-component execution the
paper relied on) and massively redundant across figures: fig6 (MPKI), fig7
(latency) and fig8 (execution time) all re-simulate the same Baseline/WiDir
pairs. This module provides the execution layer that removes both kinds of
waste:

``RunRequest`` / ``run_key``
    A canonical description of one simulation and its content hash. The key
    covers the app name, *every* :class:`~repro.config.system.SystemConfig`
    field, the per-core memop count, the trace seed, and a schema version —
    two requests with the same key are guaranteed (by the repo's determinism
    contract) to produce byte-identical results.

``ExperimentPlan``
    An ordered run matrix. Figures declare what they need; the executor
    figures out what actually has to be simulated.

``Executor``
    Deduplicates a plan by :func:`run_key`, satisfies requests from an
    on-disk JSON cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), fans
    the remaining unique runs out over a ``multiprocessing`` pool
    (``$REPRO_WORKERS`` / ``--workers``; ``workers=1`` is a deterministic
    in-process serial fallback), and returns results in plan order.

Every result — fresh, pooled, or cached — is canonicalized through
``SimulationResult.to_dict()``/``from_dict()`` so parallel, serial, and
warm-cache execution are *byte-identical*, which the determinism tests
assert.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.config.presets import baseline_config, widir_config
from repro.config.system import SystemConfig
from repro.harness.ioutils import atomic_write_json, quarantine
from repro.harness.runner import DEFAULT_MEMOPS, SimulationResult, run_app

log = logging.getLogger("repro.harness.executor")

#: Bump on ANY change that alters simulation results or their serialized
#: shape (protocol semantics, stats counters, energy constants, trace
#: synthesis, ...). Stale cache entries from earlier schemas are simply
#: never looked up again; ``Executor.prune_cache`` garbage-collects them.
CACHE_SCHEMA_VERSION = 2  # v2: SimulationResult grew latency_histogram

_ENV_WORKERS = "REPRO_WORKERS"
_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_ENV_CACHE = "REPRO_CACHE"


# ------------------------------------------------------------------ run keys


@dataclass(frozen=True)
class RunRequest:
    """One simulation the harness wants: app on machine for memops refs.

    A request either *synthesizes* its reference stream (the default:
    ``app``/``memops``/``trace_seed`` drive the workload generator) or
    *replays* a recorded trace file: ``trace_path`` names the file,
    ``trace_id`` pins its content digest (verified before the run — a
    re-recorded file at the same path misses the cache instead of
    silently serving stale results), and ``trace_window`` optionally
    narrows the run to one barrier-safe chunk window (the sharded-
    campaign unit, replayed cold).
    """

    app: str
    config: SystemConfig
    memops: int
    trace_seed: int = 0
    trace_path: str = ""
    trace_id: str = ""
    trace_window: Optional[Tuple[Tuple[int, int], ...]] = None

    def canonical(self) -> Dict:
        """JSON-stable description; the hash input for :func:`run_key`.

        Trace fields are included only when set, so the keys (and the
        on-disk cache entries) of every pre-existing generator-driven
        request are byte-identical to before trace replay existed. The
        key covers ``trace_id`` — the content digest — not the file
        path: the same reference stream is the same run wherever the
        file lives.
        """
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "app": self.app,
            "config": self.config.to_dict(),
            "memops": self.memops,
            "trace_seed": self.trace_seed,
        }
        if self.trace_path:
            payload["trace_id"] = self.trace_id
            if self.trace_window is not None:
                payload["trace_window"] = [list(span) for span in self.trace_window]
        return payload


def run_key(request: RunRequest) -> str:
    """Content hash identifying a request's result (cache file stem)."""
    blob = json.dumps(request.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- plans


class ExperimentPlan:
    """An ordered matrix of runs, declared up front and executed at once.

    Figures build a plan, hand it to :meth:`Executor.map_runs`, and read
    results back positionally (``add`` returns the request's index).
    Duplicate requests are legal — the executor deduplicates by
    :func:`run_key` before dispatch, so declaring the natural matrix is
    always correct and never wasteful.
    """

    def __init__(self) -> None:
        self.requests: List[RunRequest] = []

    def __len__(self) -> int:
        return len(self.requests)

    def add(
        self,
        app: str,
        config: SystemConfig,
        memops: Optional[int] = None,
        trace_seed: int = 0,
    ) -> int:
        """Append one run; returns its index into ``map_runs`` output."""
        resolved = memops if memops is not None else DEFAULT_MEMOPS
        self.requests.append(RunRequest(app, config, resolved, trace_seed))
        return len(self.requests) - 1

    def add_pair(
        self,
        app: str,
        num_cores: int = 64,
        memops: Optional[int] = None,
        trace_seed: int = 0,
        max_wired_sharers: int = 3,
        seed: int = 42,
    ) -> Tuple[int, int]:
        """Append a Baseline/WiDir pair on the same traces (``run_pair``)."""
        base = self.add(
            app, baseline_config(num_cores=num_cores, seed=seed), memops, trace_seed
        )
        widir = self.add(
            app,
            widir_config(
                num_cores=num_cores, max_wired_sharers=max_wired_sharers, seed=seed
            ),
            memops,
            trace_seed,
        )
        return base, widir

    def add_trace(
        self,
        trace_path: Union[str, Path],
        config: SystemConfig,
        trace_id: str = "",
        window: Optional[Tuple[Tuple[int, int], ...]] = None,
        app: str = "",
    ) -> int:
        """Append a recorded-trace replay run; returns its index.

        ``trace_id`` is read from the file when not supplied (one cheap
        header+index parse). ``window`` restricts the run to one
        barrier-safe chunk window, replayed cold (see
        :mod:`repro.traces.sharding`).
        """
        from repro.traces.format import TraceReader

        path = str(trace_path)
        if not trace_id or not app:
            with TraceReader(path) as reader:
                trace_id = trace_id or reader.trace_id
                app = app or reader.app or "trace"
        span = None
        if window is not None:
            span = tuple((int(a), int(b)) for a, b in window)
        self.requests.append(
            RunRequest(
                app,
                config,
                0,
                0,
                trace_path=path,
                trace_id=trace_id,
                trace_window=span,
            )
        )
        return len(self.requests) - 1

    def unique_keys(self) -> List[str]:
        """Distinct run keys in first-occurrence order."""
        seen: Dict[str, None] = {}
        for request in self.requests:
            seen.setdefault(run_key(request), None)
        return list(seen)


# ------------------------------------------------------------- worker side

#: ``sys.path`` entries the pool initializer replays in workers, so spawned
#: children can import ``repro`` even when the repo is used uninstalled via
#: ``PYTHONPATH=src`` (fork inherits the path; spawn does not).
def _pool_init(paths: List[str]) -> None:  # pragma: no cover - worker side
    import sys

    for entry in reversed(paths):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _simulate(request: RunRequest) -> Tuple[Dict, float]:
    """Execute one request; returns (canonical payload, wall seconds).

    Module-level so it pickles into pool workers. The payload (not the
    ``SimulationResult``) crosses the process boundary: it is exactly what
    the cache stores, so every execution mode shares one canonical form.
    """
    started = time.perf_counter()
    if request.trace_path:
        from repro.traces.replay import replay_trace, replay_window

        if request.trace_window is not None:
            result = replay_window(
                request.trace_path,
                request.config,
                request.trace_window,
                expect_trace_id=request.trace_id,
            )
        else:
            result = replay_trace(
                request.trace_path,
                request.config,
                expect_trace_id=request.trace_id,
            )
    else:
        result = run_app(
            request.app, request.config, request.memops, request.trace_seed
        )
    return result.to_dict(), time.perf_counter() - started


# --------------------------------------------------------------- executor


@dataclass
class ExecutorStats:
    """Cumulative accounting for one :class:`Executor` (bench telemetry)."""

    requested: int = 0  #: runs asked for across all plans
    deduplicated: int = 0  #: requests satisfied by another request's result
    cache_hits: int = 0  #: unique runs satisfied from the on-disk cache
    executed: int = 0  #: simulations actually run
    sim_seconds: float = 0.0  #: summed per-simulation wall time ("serial cost")
    wall_seconds: float = 0.0  #: summed ``map_runs`` wall time

    @property
    def hit_rate(self) -> float:
        served = self.cache_hits + self.executed
        return self.cache_hits / served if served else 0.0

    def as_dict(self) -> Dict:
        return {
            "requested": self.requested,
            "deduplicated": self.deduplicated,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "cache_hit_rate": self.hit_rate,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
        }


def _default_workers() -> int:
    raw = os.environ.get(_ENV_WORKERS, "").strip()
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


def _default_cache_dir() -> Path:
    raw = os.environ.get(_ENV_CACHE_DIR, "").strip()
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "repro"


def _cache_enabled_by_env() -> bool:
    return os.environ.get(_ENV_CACHE, "1").strip().lower() not in ("0", "no", "off")


class Executor:
    """Deduplicating, memoizing, optionally parallel experiment runner.

    Parameters
    ----------
    workers:
        Process count for the fan-out pool. ``None`` reads ``REPRO_WORKERS``
        and falls back to ``os.cpu_count()``. ``1`` never creates a pool:
        runs execute in-process, in plan order (the deterministic serial
        fallback — bit-identical to the parallel path by construction).
    cache_dir:
        Where memoized results live, one ``<run_key>.json`` per unique run.
        ``None`` reads ``REPRO_CACHE_DIR`` and falls back to
        ``~/.cache/repro``.
    use_cache:
        Disable to force re-simulation (also ``REPRO_CACHE=0``).
    store:
        Must be ``None``; kept only for callers that still pass
        ``store=None``. Any other value raises :class:`TypeError`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: Optional[bool] = None,
        store: None = None,
    ) -> None:
        if store is not None:
            raise TypeError(
                "Executor(store=...) accepts only None: the result store "
                "was removed in 1.3"
            )
        self.workers = _default_workers() if workers is None else max(1, int(workers))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
        self.use_cache = _cache_enabled_by_env() if use_cache is None else bool(use_cache)
        self.stats = ExecutorStats()

    # ------------------------------------------------------------- cache

    def _cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _cache_load(self, key: str) -> Optional[Dict]:
        if not self.use_cache:
            return None
        path = self._cache_path(key)
        try:
            raw = path.read_text()
        except OSError:
            return None  # plain miss
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("cache entries must be JSON objects")
            return payload
        except ValueError:
            # A corrupt entry (e.g. a pre-hardening writer killed mid-write)
            # must never poison the run: move it aside for post-mortem
            # inspection, log, and recompute.
            log.warning("corrupt cache entry for %s; quarantining", key)
            quarantine(path)
            return None

    def _cache_store(self, key: str, payload: Dict) -> None:
        if not self.use_cache:
            return
        try:
            # tmp + fsync + rename: a kill mid-write can never leave a torn
            # JSON file at the final path (see repro.harness.ioutils).
            atomic_write_json(self._cache_path(key), payload)
        except OSError:
            pass  # a read-only cache dir degrades to "no memoization"

    def prune_cache(self) -> int:
        """Delete every cached entry (plus quarantined/stale-tmp debris);
        returns the number removed."""
        removed = 0
        if self.cache_dir.is_dir():
            entries = list(self.cache_dir.glob("*.json"))
            entries += self.cache_dir.glob("*.json.corrupt.*")
            entries += self.cache_dir.glob("*.json.tmp.*")
            for entry in entries:
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # ---------------------------------------------------------- execution

    def _execute_unique(
        self, todo: List[Tuple[str, RunRequest]]
    ) -> Dict[str, Dict]:
        """Simulate the cache-missing unique runs; returns key -> payload."""
        payloads: Dict[str, Dict] = {}
        if not todo:
            return payloads
        if self.workers > 1 and len(todo) > 1:
            import multiprocessing
            import sys

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context()
            processes = min(self.workers, len(todo))
            with context.Pool(
                processes, initializer=_pool_init, initargs=(list(sys.path),)
            ) as pool:
                outputs = pool.map(_simulate, [request for _, request in todo])
        else:
            outputs = [_simulate(request) for _, request in todo]
        for (key, _), (payload, elapsed) in zip(todo, outputs):
            payloads[key] = payload
            self.stats.executed += 1
            self.stats.sim_seconds += elapsed
            self._cache_store(key, payload)
        return payloads

    def map_runs(self, plan: ExperimentPlan) -> List[SimulationResult]:
        """Execute a plan; returns results aligned with ``plan.requests``.

        Requests are deduplicated by :func:`run_key`; unique misses are
        simulated (pooled if ``workers > 1``); everything is canonicalized
        through ``SimulationResult.from_dict`` so the output is independent
        of *how* each run was satisfied.
        """
        started = time.perf_counter()
        keys = [run_key(request) for request in plan.requests]
        self.stats.requested += len(keys)

        first_occurrence: Dict[str, RunRequest] = {}
        for key, request in zip(keys, plan.requests):
            if key in first_occurrence:
                self.stats.deduplicated += 1
            else:
                first_occurrence[key] = request

        payloads: Dict[str, Dict] = {}
        todo: List[Tuple[str, RunRequest]] = []
        for key, request in first_occurrence.items():
            cached = self._cache_load(key)
            if cached is not None:
                payloads[key] = cached
                self.stats.cache_hits += 1
            else:
                todo.append((key, request))

        payloads.update(self._execute_unique(todo))
        results = [SimulationResult.from_dict(payloads[key]) for key in keys]
        self.stats.wall_seconds += time.perf_counter() - started
        return results

    # -------------------------------------------------------- conveniences

    def run(
        self,
        app: str,
        config: SystemConfig,
        memops: Optional[int] = None,
        trace_seed: int = 0,
    ) -> SimulationResult:
        """``run_app`` through the dedup/memoize/canonicalize pipeline."""
        plan = ExperimentPlan()
        index = plan.add(app, config, memops, trace_seed)
        return self.map_runs(plan)[index]

    def run_pair(
        self,
        app: str,
        num_cores: int = 64,
        memops_per_core: Optional[int] = None,
        trace_seed: int = 0,
        max_wired_sharers: int = 3,
        seed: int = 42,
    ) -> Tuple[SimulationResult, SimulationResult]:
        """``run_pair`` through the executor; returns (baseline, widir)."""
        plan = ExperimentPlan()
        base, widir = plan.add_pair(
            app,
            num_cores=num_cores,
            memops=memops_per_core,
            trace_seed=trace_seed,
            max_wired_sharers=max_wired_sharers,
            seed=seed,
        )
        results = self.map_runs(plan)
        return results[base], results[widir]


# ------------------------------------------------------- default instance

_DEFAULT_EXECUTOR: Optional[Executor] = None


def default_executor() -> Executor:
    """Process-wide executor the figure functions use when none is passed.

    Its stats accumulate across every figure in the process, which is what
    the benchmark suite's ``BENCH_harness.json`` emitter reports.
    """
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        _DEFAULT_EXECUTOR = Executor()
    return _DEFAULT_EXECUTOR


def set_default_executor(executor: Optional[Executor]) -> Optional[Executor]:
    """Swap the process-wide executor (tests, CLI); returns the old one."""
    global _DEFAULT_EXECUTOR
    previous = _DEFAULT_EXECUTOR
    _DEFAULT_EXECUTOR = executor
    return previous
