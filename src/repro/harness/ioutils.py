"""Crash-safe filesystem primitives shared by the harness.

Every durable artifact the harness writes — memoized executor cache
entries, campaign checkpoints, aggregate result files — goes through one
of two disciplines:

``atomic_write_text`` / ``atomic_write_json``
    Write to a same-directory temporary file, flush, ``fsync``, then
    ``os.replace`` onto the destination. A reader (or a resumed campaign)
    observes either the old file or the complete new one, never a torn
    write — a SIGKILL mid-write leaves at worst a uniquely named ``*.tmp.*``
    file that :func:`remove_stale_tmp` garbage-collects.

``append_jsonl`` / ``read_jsonl``
    An append-only journal of one JSON object per line, fsynced per
    record. Appends are not atomic across a crash, so the reader treats a
    torn or non-JSON *final* line as "the record that died with the
    writer" and drops it; torn lines anywhere else are reported so real
    corruption is not silently eaten.

``quarantine``
    Move an unreadable file aside (``<name>.corrupt.<pid>``) instead of
    deleting it, so a poisoned cache entry can be inspected post mortem
    while the caller simply recomputes.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

log = logging.getLogger("repro.harness.io")

#: Infix every temporary file carries; CI greps for leftovers.
TMP_INFIX = ".tmp."


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{TMP_INFIX}{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def atomic_write_json(path: Union[str, Path], payload: Dict) -> None:
    """Canonical (sorted, compact) durable JSON write via tmp+fsync+rename."""
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


def append_jsonl(path: Union[str, Path], record: Dict) -> None:
    """Append one JSON record (plus newline) to a journal, fsynced.

    The record is written in a single ``write`` call so a crash tears at
    most the final line, which :func:`read_jsonl` tolerates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl(path: Union[str, Path]) -> Tuple[List[Dict], List[int]]:
    """Read a journal written by :func:`append_jsonl`.

    Returns ``(records, bad_line_numbers)``. A torn/invalid *last* line is
    expected after a crash and is dropped silently; invalid lines earlier
    in the file are also dropped but reported in ``bad_line_numbers`` (and
    logged) because they indicate corruption beyond a mid-append kill.
    """
    path = Path(path)
    records: List[Dict] = []
    bad: List[int] = []
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return records, bad
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    last = len(lines) - 1
    for number, line in enumerate(lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("journal records must be JSON objects")
        except ValueError:
            if number != last:
                bad.append(number + 1)
                log.warning(
                    "journal %s: dropping corrupt line %d", path, number + 1
                )
            continue
        records.append(record)
    return records, bad


def quarantine(path: Union[str, Path]) -> Path:
    """Move an unreadable file aside; returns the quarantine path.

    Never raises: if the rename itself fails the original path is
    returned and the caller proceeds as if the entry were missing.
    """
    path = Path(path)
    target = path.with_name(f"{path.name}.corrupt.{os.getpid()}")
    try:
        os.replace(path, target)
        log.warning("quarantined corrupt file %s -> %s", path, target.name)
        return target
    except OSError:
        return path


def iter_stale_tmp(root: Union[str, Path]) -> Iterator[Path]:
    """Yield leftover ``*.tmp.*`` files under ``root`` (crashed writers)."""
    root = Path(root)
    if root.is_dir():
        yield from root.rglob(f"*{TMP_INFIX}*")


def remove_stale_tmp(root: Union[str, Path]) -> int:
    """Delete leftover temporary files under ``root``; returns the count."""
    removed = 0
    for entry in list(iter_stale_tmp(root)):
        try:
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return removed
