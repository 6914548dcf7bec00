"""Smoke tests that run every example script end-to-end (tiny sizes)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, *args: str) -> str:
    result = subprocess.run(
        # An example that calls a deprecated entry point fails here.
        [sys.executable, "-W", "error::DeprecationWarning:__main__",
         str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{script} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "volrend", "8", "200")
        assert "WiDir speedup" in out
        assert "Collision probability" in out

    def test_quickstart_rejects_unknown_app(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py"), "doom"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "unknown app" in result.stderr

    def test_lock_contention(self):
        out = run_example("lock_contention.py", "8", "10")
        assert "WiDir speedup on contended locking" in out
        assert "S->W transitions" in out

    def test_producer_consumer(self):
        out = run_example("producer_consumer.py", "6", "15")
        assert "Consumer read latency gain" in out

    def test_protocol_trace(self):
        out = run_example("protocol_trace.py")
        assert "S->W transition!" in out
        assert "coherence checked" in out

    def test_scalability_study(self):
        out = run_example("scalability_study.py", "volrend", "150")
        assert "WiDir speedup" in out
        assert "Figure 10" in out

    def test_false_sharing(self):
        out = run_example("false_sharing.py", "4", "15")
        assert "WiDir speedup on false sharing" in out

    def test_threshold_sweep(self):
        out = run_example("threshold_sweep.py", "volrend", "8", "200")
        assert "MaxWiredSharers sweep" in out
        assert "sweet spot" in out
