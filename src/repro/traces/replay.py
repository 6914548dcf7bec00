"""Replay a recorded trace file through the full machine.

Three execution shapes, one harvest:

* **Continuous** (``snapshot_every == 0``): one machine streams every
  chunk through :meth:`Core.run_trace`'s ``chunk_source`` seam. The
  refill is synchronous — no event is scheduled, no time passes — so the
  event sequence is *identical* to a live ``run_app`` of the same ops,
  and the result digest matches the generator-driven run bit for bit
  (the golden tests lock this for every backend).

* **Segmented** (``snapshot_every > 0``): the trace is cut into
  barrier-safe windows of roughly that many chunks per core (see
  :func:`repro.traces.sharding.plan_segments`); each segment runs to
  full event-queue drain on a machine **freshly constructed and
  restored** from the previous segment's snapshot, then captures the
  next snapshot. Because every boundary — interrupted or not — executes
  the same construct+restore sequence, killing the process mid-trace
  and resuming from the last durable snapshot yields a byte-identical
  final digest to the uninterrupted segmented run. (The segmented
  digest is a deterministic function of the snapshot interval; it is
  not required to equal the continuous digest.)

* **Windowed** (:func:`replay_window`): one barrier-safe window replayed
  cold — cycle 0, empty caches — which is the unit a trace-sharded
  campaign fans out across workers;
  :func:`repro.traces.sharding.merge_window_results` folds the per-
  window results back into one, identical to replaying all windows
  sequentially on one box.

Memory stays O(num_cores × chunk) in every shape: the reader hands out
one decompressed chunk at a time and the core drops its previous chunk
on refill.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cpu.trace import TraceChunk
from repro.engine.errors import SimulationError
from repro.traces.format import TraceFormatError, TraceReader
from repro.traces.snapshot import (
    capture_machine,
    load_snapshot,
    restore_machine,
    save_snapshot,
)

#: Matches the harness's per-memop event budget; records >= memops so a
#: per-record budget is strictly more generous than ``run_app``'s.
MAX_EVENTS_PER_RECORD = 600

#: Floor so an (almost) empty segment still gets a workable budget.
_MIN_EVENT_BUDGET = 10_000


def result_digest(result) -> str:
    """Canonical sha256 of a result — the replay-identity currency.

    Hashes the full ``to_dict()`` payload as sorted-key compact JSON, so
    two results are digest-equal iff they are byte-identical under the
    executor's serialization contract.
    """
    blob = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ------------------------------------------------------------ chunk sources


def _chunk_source(reader: TraceReader, core: int, start: int, stop: int):
    """First chunk + a pull-one-more callable for chunks ``[start, stop)``.

    The pull happens inside the core's own wake-up, so only one chunk per
    core is ever decompressed and bound at a time.
    """
    if start >= stop:
        return TraceChunk(), None
    first = reader.read_chunk(core, start)
    cursor = [start + 1]

    def pull() -> Optional[TraceChunk]:
        index = cursor[0]
        if index >= stop:
            return None
        cursor[0] = index + 1
        return reader.read_chunk(core, index)

    return first, pull


def _window_records(reader: TraceReader, window: Sequence[Tuple[int, int]]) -> int:
    total = 0
    for core, (start, stop) in enumerate(window):
        for index in range(start, stop):
            total += reader.chunk_length(core, index)
    return total


# ----------------------------------------------------------------- execution


def _run_ops(machine, cores, barrier, reader, window, label: str) -> None:
    """Drive one window of chunks to full drain; raise if any core stalls."""
    finished = {"count": 0}

    def on_finish(_core) -> None:
        finished["count"] += 1

    for core_obj, (start, stop) in zip(cores, window):
        first, pull = _chunk_source(reader, core_obj.node, start, stop)
        core_obj.run_trace(first, on_finish, chunk_source=pull)

    budget = max(
        _MIN_EVENT_BUDGET, MAX_EVENTS_PER_RECORD * _window_records(reader, window)
    )
    machine.run(max_events=budget)
    if finished["count"] != len(cores):
        stuck = [c.node for c in cores if not c.finished]
        raise SimulationError(
            f"{label}: cores {stuck} did not finish "
            f"(deadlock or lost wakeup at cycle {machine.sim.now})"
        )


def _harvest(machine, cores, config, app: str):
    """Fold a finished machine into a SimulationResult — ``run_app``'s
    harvest, verbatim, so replay results are digest-comparable to live
    runs."""
    from repro.energy.models import EnergyModel
    from repro.harness.runner import SimulationResult
    from repro.stats.collectors import Histogram

    cycles = max(core.result.finish_cycle for core in cores)
    stats = machine.stats
    sharer_hist = stats.histogram(
        "widir.sharers_per_update",
        (((0, 5), (6, 10), (11, 25), (26, 49), (50, None))),
    )
    hop_hist = stats.histogram(
        "noc.hops_per_leg", ((0, 2), (3, 5), (6, 8), (9, 11), (12, None))
    )
    collision_prob = (
        machine.wireless.collision_probability if machine.wireless else 0.0
    )
    energy = EnergyModel().compute(config, stats, cycles)
    merged_hist = Histogram("memory_latency")
    for core in cores:
        merged_hist.merge(core.result.latency_hist)

    return SimulationResult(
        app=app,
        config=config,
        cycles=cycles,
        instructions=stats.get_counter("core.total.instructions"),
        memory_stall_cycles=sum(c.result.memory_stall_cycles for c in cores),
        sync_stall_cycles=sum(c.result.sync_stall_cycles for c in cores),
        load_latency_total=sum(c.result.load_latency.total for c in cores),
        store_latency_total=sum(c.result.store_latency.total for c in cores),
        read_misses=stats.get_counter("l1.total.read_misses"),
        write_misses=stats.get_counter("l1.total.write_misses"),
        wireless_writes=stats.get_counter("l1.total.wireless_writes"),
        sharer_histogram=dict(zip(sharer_hist.labels(), sharer_hist.counts)),
        hop_histogram=dict(zip(hop_hist.labels(), hop_hist.counts)),
        collision_probability=collision_prob,
        energy=energy,
        stats_counters=stats.counters(),
        latency_histogram=merged_hist.to_dict(),
    )


def _fresh_machine(config):
    from repro.cpu.core import Core
    from repro.cpu.sync import PhaseBarrier
    from repro.system import Manycore

    machine = Manycore(config)
    barrier = PhaseBarrier(config.num_cores)
    cores = [
        Core(machine.sim, node, machine.caches[node], config, machine.stats, barrier)
        for node in range(config.num_cores)
    ]
    return machine, cores, barrier


def _check_reader(reader: TraceReader, config, expect_trace_id: str = "") -> None:
    if reader.num_cores != config.num_cores:
        raise TraceFormatError(
            f"trace was recorded for {reader.num_cores} cores; "
            f"config has {config.num_cores}"
        )
    if expect_trace_id and reader.trace_id != expect_trace_id:
        raise TraceFormatError(
            f"{reader.path}: trace_id {reader.trace_id} does not match the "
            f"expected {expect_trace_id} (file re-recorded since planning?)"
        )


# -------------------------------------------------------------- entry points


def replay_trace(
    path: Union[str, Path],
    config,
    snapshot_every: int = 0,
    snapshot_path: Optional[Union[str, Path]] = None,
    check: bool = True,
    machine_sink: Optional[List] = None,
    expect_trace_id: str = "",
):
    """Replay the whole trace at ``path`` on a machine built from ``config``.

    ``snapshot_every`` > 0 selects segmented execution with a snapshot
    roughly every that many chunks per core (cut points are shifted to
    the nearest barrier-safe boundary). ``snapshot_path`` makes each
    boundary durable: if the file already exists and matches this trace,
    replay *resumes* from it — the SIGKILL-recovery path — and the file
    is removed after a completed run.
    """
    from repro.traces.sharding import plan_segments

    with TraceReader(path) as reader:
        _check_reader(reader, config, expect_trace_id)
        app = reader.app or "trace"
        if snapshot_every <= 0:
            machine, cores, barrier = _fresh_machine(config)
            if machine_sink is not None:
                machine_sink.append(machine)
            window = [(0, reader.num_chunks(node)) for node in range(config.num_cores)]
            _run_ops(machine, cores, barrier, reader, window, app)
            if check:
                machine.check_coherence()
            return _harvest(machine, cores, config, app)

        cuts = plan_segments(reader, snapshot_every)
        start_segment = 0
        snap: Optional[Dict] = None
        if snapshot_path is not None and Path(snapshot_path).exists():
            snap = load_snapshot(snapshot_path)
            progress = snap.get("progress", {})
            if progress.get("trace_id") != reader.trace_id:
                raise TraceFormatError(
                    f"snapshot {snapshot_path} belongs to trace "
                    f"{progress.get('trace_id')}, not {reader.trace_id}"
                )
            if progress.get("snapshot_every") != snapshot_every:
                raise TraceFormatError(
                    f"snapshot {snapshot_path} was taken with "
                    f"snapshot_every={progress.get('snapshot_every')}, "
                    f"requested {snapshot_every}"
                )
            start_segment = progress["segment"]

        machine = cores = barrier = None
        previous = [0] * config.num_cores
        if start_segment > 0:
            previous = list(cuts[start_segment - 1])
        for segment in range(start_segment, len(cuts)):
            machine, cores, barrier = _fresh_machine(config)
            if snap is not None:
                restore_machine(machine, cores, snap)
            window = [
                (previous[node], cuts[segment][node])
                for node in range(config.num_cores)
            ]
            _run_ops(
                machine, cores, barrier, reader, window,
                f"{app}[segment {segment}]",
            )
            previous = list(cuts[segment])
            if segment < len(cuts) - 1:
                snap = capture_machine(
                    machine,
                    cores,
                    barrier,
                    progress={
                        "segment": segment + 1,
                        "trace_id": reader.trace_id,
                        "snapshot_every": snapshot_every,
                    },
                )
                if snapshot_path is not None:
                    save_snapshot(snapshot_path, snap)
        if machine_sink is not None:
            machine_sink.append(machine)
        if check:
            machine.check_coherence()
        result = _harvest(machine, cores, config, app)
        if snapshot_path is not None:
            # The run completed; a leftover snapshot would wrongly resume
            # a future identical invocation past its final segment.
            try:
                os.remove(snapshot_path)
            except FileNotFoundError:
                pass
        return result


def replay_window(
    path: Union[str, Path],
    config,
    window: Sequence[Sequence[int]],
    check: bool = True,
    expect_trace_id: str = "",
):
    """Cold-replay one barrier-safe chunk window (the sharded-campaign unit).

    ``window`` is a per-core sequence of ``(start_chunk, stop_chunk)``
    ranges as produced by :func:`repro.traces.sharding.plan_windows`.
    The machine starts empty at cycle 0, so per-window results are
    independent of which worker runs them; merging every window of a
    plan (:func:`~repro.traces.sharding.merge_window_results`) is
    deterministic and worker-count-invariant.
    """
    with TraceReader(path) as reader:
        _check_reader(reader, config, expect_trace_id)
        if len(window) != config.num_cores:
            raise TraceFormatError(
                f"window covers {len(window)} cores, config has "
                f"{config.num_cores}"
            )
        app = reader.app or "trace"
        spans = [(int(start), int(stop)) for start, stop in window]
        machine, cores, barrier = _fresh_machine(config)
        _run_ops(machine, cores, barrier, reader, spans, app)
        if check:
            machine.check_coherence()
        return _harvest(machine, cores, config, app)
