"""Campaign-level observability: progress counters and retry spans.

The simulator's observability layer (:mod:`repro.obs`) watches *one*
machine from the inside. A campaign is a fleet of such runs under fault
supervision, so it gets its own, much lighter telemetry: monotonic
progress counters (runs completed / cache hits / retries by failure kind)
plus one wall-clock **span per attempt**, closed with the attempt's
terminal status. Spans export to the same Chrome/Perfetto ``trace.json``
shape the simulator traces use (thread-per-worker-slot slices + a
``campaign.completed`` counter track), so a flaky sweep can be inspected
in the exact tooling docs/OBSERVABILITY.md already documents.

Wiring: :class:`~repro.harness.campaign.Campaign` feeds every supervisor
event (``launch`` / ``ok`` / ``retry`` / ``giveup``) and its own
journal-level events (``cache-hit`` / ``resume-skip``) into
:meth:`CampaignTelemetry.on_event`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Schema tag embedded in exported campaign traces.
CAMPAIGN_TRACE_SCHEMA = 1

#: Counter names, in rendering order.
COUNTERS = (
    "runs.total",
    "runs.completed",
    "runs.failed",
    "runs.cache_hits",
    "runs.resumed",
    "attempts.launched",
    "attempts.ok",
    "retries.total",
    "retries.crashed",
    "retries.timeout",
    "retries.hung",
    "retries.error",
    "giveups.total",
)


class CampaignTelemetry:
    """Counters + attempt spans for one campaign execution."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._epoch = clock()
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.backoff_seconds: float = 0.0
        #: Closed attempt spans: key, attempt, status, t0/t1 (seconds since
        #: telemetry epoch), fault (injected kind or None), detail.
        self.spans: List[Dict] = []
        self._open: Dict[str, Dict] = {}
        #: Progress samples for the counter track: (t, completed).
        self._progress: List[tuple] = []

    # ------------------------------------------------------------- feeding

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def _close(self, key: str, status: str, detail: str = "") -> None:
        span = self._open.pop(key, None)
        if span is None:
            return
        span["t1"] = self._now()
        span["status"] = status
        span["detail"] = detail
        self.spans.append(span)

    def on_event(self, event: Dict) -> None:
        """Consume one supervisor/campaign event dict."""
        kind = event.get("event")
        now = self._now()
        if kind == "launch":
            self._bump("attempts.launched")
            self._open[event["key"]] = {
                "key": event["key"],
                "attempt": event["attempt"],
                "fault": event.get("fault"),
                "t0": now,
            }
        elif kind == "ok":
            self._bump("attempts.ok")
            self._bump("runs.completed")
            self._close(event["key"], "ok")
            self._progress.append((now, self.counters["runs.completed"]))
        elif kind == "retry":
            status = event.get("status", "error")
            self._bump("retries.total")
            self._bump(f"retries.{status}")
            self.backoff_seconds += float(event.get("backoff", 0.0))
            self._close(event["key"], status, event.get("detail", ""))
        elif kind == "giveup":
            self._bump("giveups.total")
            self._bump("runs.failed")
            self._close(
                event["key"], event.get("status", "failed"),
                event.get("detail", ""),
            )
        elif kind == "cache-hit":
            self._bump("runs.cache_hits")
            self._bump("runs.completed")
            self._progress.append((now, self.counters["runs.completed"]))
        elif kind == "resume-skip":
            self._bump("runs.resumed")
            self._bump("runs.completed")
        elif kind == "plan":
            self._bump("runs.total", int(event.get("total", 0)))

    # ----------------------------------------------------------- reporting

    def snapshot(self) -> Dict:
        """JSON-serializable state (embedded in campaign status reports)."""
        return {
            "schema": CAMPAIGN_TRACE_SCHEMA,
            "counters": dict(self.counters),
            "backoff_seconds": self.backoff_seconds,
            "spans": list(self.spans),
        }

    def render_counters(self, indent: str = "") -> List[str]:
        """Human-readable counter lines (only the non-zero interesting ones
        plus the headline progress counters)."""
        lines = []
        for name in COUNTERS:
            value = self.counters.get(name, 0)
            if value or name in ("runs.total", "runs.completed"):
                lines.append(f"{indent}{name:<18} {value}")
        if self.backoff_seconds:
            lines.append(
                f"{indent}{'backoff seconds':<18} {self.backoff_seconds:.3f}"
            )
        return lines

    # ------------------------------------------------------- chrome export

    def to_chrome_trace(self, workers: int = 0) -> Dict:
        """Export attempt spans as a Chrome Trace Event JSON object.

        Each span becomes a complete (``ph: "X"``) slice, packed greedily
        onto lanes so concurrent attempts render side by side. Run
        completion is emitted as a ``campaign.completed`` counter track.
        """
        events: List[Dict] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "name": "process_name",
                "args": {"name": "campaign"},
            }
        ]
        lanes: List[float] = []  # end time per lane

        def lane_for(t0: float) -> int:
            for index, busy_until in enumerate(lanes):
                if busy_until <= t0:
                    lanes[index] = t0
                    return index
            lanes.append(t0)
            return len(lanes) - 1

        for span in sorted(self.spans, key=lambda s: s["t0"]):
            lane = lane_for(span["t0"])
            lanes[lane] = span["t1"]
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": lane + 1,
                    "cat": "campaign",
                    "name": f"{span['key'][:12]}#{span['attempt']}",
                    "ts": round(span["t0"] * 1e6, 3),
                    "dur": round(
                        max(0.0, span["t1"] - span["t0"]) * 1e6, 3
                    ),
                    "args": {
                        "status": span["status"],
                        "attempt": span["attempt"],
                        "fault": span.get("fault"),
                        "detail": span.get("detail", ""),
                    },
                }
            )
        for timestamp, completed in self._progress:
            events.append(
                {
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "name": "campaign.completed",
                    "ts": round(timestamp * 1e6, 3),
                    "args": {"completed": completed},
                }
            )
        return {
            "traceEvents": events,
            "otherData": {
                "schema": CAMPAIGN_TRACE_SCHEMA,
                "workers": workers,
            },
        }

    def write_chrome_trace(
        self, path: Union[str, Path], workers: int = 0
    ) -> Optional[Path]:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_chrome_trace(workers=workers), sort_keys=True),
            encoding="utf-8",
        )
        return path
