"""Converters *into* the canonical trace format.

``record_app_trace`` freezes any synthetic application profile into a
trace file: it consumes the generator's chunk-emission seam
(:func:`repro.workloads.generator.iter_core_trace_chunks`), so the
recorded stream is op-for-op identical to what a live ``run_app`` of the
same (profile, cores, memops, seed) would execute — the property the
replay golden-digest tests lock for every protocol backend.

``convert_csv`` imports the simple external text format, one op per
line::

    core,kind,address,value,arg,blocking

``kind`` is one of think/load/store/rmw/barrier; ``address`` accepts
decimal or ``0x`` hex; trailing fields may be omitted (value/arg default
0, blocking defaults 1); blank lines and ``#`` comments are skipped.
This is the seam an external core model or pin-style tool writes to.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.cpu.trace import KIND_CODES
from repro.traces.format import (
    DEFAULT_CHUNK_RECORDS,
    TraceFormatError,
    TraceWriter,
    trace_info,
)


def _resolve_profile(app):
    from repro.workloads.profiles import APP_PROFILES, AppProfile

    if isinstance(app, AppProfile):
        return app
    try:
        return APP_PROFILES[app]
    except KeyError:
        raise KeyError(
            f"unknown application {app!r}; known apps: {sorted(APP_PROFILES)}"
        ) from None


def record_app_trace(
    path: Union[str, Path],
    app,
    num_cores: int,
    memops_per_core: int,
    trace_seed: int = 0,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    codec: Optional[str] = None,
    metadata: Optional[Dict] = None,
) -> Dict:
    """Record a synthetic application's reference stream to ``path``.

    Cores are synthesized and written one at a time, so peak memory is
    O(one core's trace) — independent of ``num_cores`` — and the writer
    flushes to disk every ``chunk_records`` records. Returns the
    :func:`~repro.traces.format.trace_info` summary of the written file
    (including its ``trace_id``).
    """
    from repro.workloads.generator import iter_core_trace_chunks

    profile = _resolve_profile(app)
    meta = {
        "source": "generator",
        "memops_per_core": int(memops_per_core),
        "trace_seed": int(trace_seed),
    }
    meta.update(metadata or {})
    with TraceWriter(
        path,
        num_cores=num_cores,
        chunk_records=chunk_records,
        codec=codec,
        app=profile.name,
        metadata=meta,
    ) as writer:
        for core in range(num_cores):
            for chunk in iter_core_trace_chunks(
                profile,
                core,
                num_cores,
                memops_per_core,
                trace_seed,
                chunk_records=chunk_records,
            ):
                writer.append_chunk(core, chunk)
    return trace_info(path)


_TRUE = frozenset({"1", "true", "t", "yes", "y"})
_FALSE = frozenset({"0", "false", "f", "no", "n", ""})


def _parse_int(token: str, path, lineno: int, field: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)  # accepts decimal and 0x hex
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: bad {field} value {token!r}"
        ) from None


def convert_csv(
    src: Union[str, Path],
    dest: Union[str, Path],
    num_cores: Optional[int] = None,
    app: str = "imported",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    codec: Optional[str] = None,
) -> Dict:
    """Convert the external CSV/text op format at ``src`` into ``dest``.

    ``num_cores`` defaults to ``max(core) + 1`` discovered by a cheap
    first text pass (the writer needs the core count up front). Both
    passes stream line-by-line; memory stays O(pending chunks).
    """
    src = Path(src)
    if num_cores is None:
        highest = -1
        with open(src, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                core_token = line.split(",", 1)[0]
                highest = max(highest, _parse_int(core_token, src, lineno, "core"))
        if highest < 0:
            raise TraceFormatError(f"{src}: no trace ops found")
        num_cores = highest + 1

    ops = 0
    with TraceWriter(
        dest,
        num_cores=num_cores,
        chunk_records=chunk_records,
        codec=codec,
        app=app,
        metadata={"source": "csv", "src": src.name},
    ) as writer:
        with open(src, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = [field.strip() for field in line.split(",")]
                if not 2 <= len(fields) <= 6:
                    raise TraceFormatError(
                        f"{src}:{lineno}: expected "
                        "'core,kind[,address[,value[,arg[,blocking]]]]', "
                        f"got {line!r}"
                    )
                core = _parse_int(fields[0], src, lineno, "core")
                if not 0 <= core < num_cores:
                    raise TraceFormatError(
                        f"{src}:{lineno}: core {core} out of range "
                        f"[0, {num_cores})"
                    )
                kind = fields[1].lower()
                if kind not in KIND_CODES:
                    raise TraceFormatError(
                        f"{src}:{lineno}: unknown op kind {fields[1]!r} "
                        f"(expected one of {sorted(KIND_CODES)})"
                    )
                address = (
                    _parse_int(fields[2], src, lineno, "address")
                    if len(fields) > 2
                    else 0
                )
                value = (
                    _parse_int(fields[3], src, lineno, "value")
                    if len(fields) > 3
                    else 0
                )
                arg = (
                    _parse_int(fields[4], src, lineno, "arg")
                    if len(fields) > 4
                    else 0
                )
                if len(fields) > 5:
                    token = fields[5].lower()
                    if token in _TRUE:
                        blocking = True
                    elif token in _FALSE:
                        blocking = False
                    else:
                        raise TraceFormatError(
                            f"{src}:{lineno}: bad blocking flag {fields[5]!r}"
                        )
                else:
                    blocking = True
                writer.append_op(
                    core, kind, address=address, value=value, arg=arg,
                    blocking=blocking,
                )
                ops += 1
    info = trace_info(dest)
    info["converted_ops"] = ops
    return info
