"""``repro.traces`` — the streaming trace-ingestion subsystem.

WiDir's evaluation is driven by application reference streams; this
package makes those streams a first-class, durable input instead of a
transient artifact of the synthetic generators:

:mod:`repro.traces.format`
    The versioned, chunked, compressed canonical trace-file format
    (``.wtr``): magic + JSON header, fixed-width numpy record chunks with
    per-chunk CRCs, a footer index carrying per-chunk barrier counts, and
    a content-digest ``trace_id``. Reading and writing are both bounded
    memory — O(one chunk), never O(trace).

:mod:`repro.traces.record`
    Converters into the canonical format: record any synthetic
    application profile (``repro traces record``) or import the simple
    external CSV/text format (``repro traces convert``).

:mod:`repro.traces.snapshot`
    Versioned, atomic machine-state snapshots taken at quiescent points,
    so a long replay can be killed anywhere and resumed with a final
    digest byte-identical to the uninterrupted run.

:mod:`repro.traces.replay`
    The replay driver: continuous streaming replay (op-stream-identical
    to a live ``run_app`` of the same workload) and segmented
    snapshot/resume replay.

:mod:`repro.traces.sharding`
    Barrier-safe trace-segment windows so campaigns can fan one large
    trace across local workers by chunk range, with a deterministic merge
    identical to a single-process windowed replay.

See docs/TRACES.md for the format specification and the replay/resume
contracts.
"""

from repro.traces.format import (
    DEFAULT_CHUNK_RECORDS,
    FORMAT_VERSION,
    TraceCorruptionError,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    available_codec,
    trace_info,
    validate_trace,
)
from repro.traces.record import convert_csv, record_app_trace
from repro.traces.replay import (
    replay_trace,
    replay_window,
    result_digest,
)
from repro.traces.sharding import merge_window_results, plan_windows
from repro.traces.snapshot import SNAPSHOT_SCHEMA_VERSION, SnapshotError

__all__ = [
    "DEFAULT_CHUNK_RECORDS",
    "FORMAT_VERSION",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "TraceCorruptionError",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "available_codec",
    "convert_csv",
    "merge_window_results",
    "plan_windows",
    "record_app_trace",
    "replay_trace",
    "replay_window",
    "result_digest",
    "trace_info",
    "validate_trace",
]
