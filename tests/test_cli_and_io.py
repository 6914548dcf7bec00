"""Tests for the CLI and result serialization."""

import json

import pytest

from repro.cli import main
from repro.config import widir_config
from repro.harness.results_io import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.harness.runner import run_app


@pytest.fixture(scope="module")
def sample_result():
    return run_app("volrend", widir_config(num_cores=8), 200)


class TestSerialization:
    def test_roundtrip_preserves_metrics(self, sample_result):
        restored = result_from_dict(result_to_dict(sample_result))
        assert restored.cycles == sample_result.cycles
        assert restored.mpki == sample_result.mpki
        assert restored.sharer_histogram == sample_result.sharer_histogram
        assert restored.energy.total == sample_result.energy.total
        assert restored.config.protocol == "widir"
        assert restored.config.num_cores == 8

    def test_dict_is_json_serializable(self, sample_result):
        text = json.dumps(result_to_dict(sample_result))
        assert "volrend" in text

    def test_save_and_load_file(self, sample_result, tmp_path):
        path = tmp_path / "results.json"
        save_results({"volrend/widir/8": sample_result}, path)
        loaded = load_results(path)
        assert set(loaded) == {"volrend/widir/8"}
        assert loaded["volrend/widir/8"].cycles == sample_result.cycles


class TestCli:
    def test_run_command(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "L1 MPKI" in out
        assert "wireless writes" in out

    def test_run_json_output(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "volrend"
        assert payload["cycles"] > 0

    def test_run_baseline_protocol(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--protocol", "baseline", "--cores",
             "8", "--memops", "150"]
        ) == 0
        assert "baseline" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(
            ["sim", "compare", "volrend", "--cores", "8", "--memops", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "WiDir speedup" in out
        assert "energy ratio" in out

    def test_figure_command(self, capsys):
        assert main(
            ["figure", "render", "table5", "--apps", "volrend", "--cores",
             "16", "--memops", "150"]
        ) == 0
        assert "Table V" in capsys.readouterr().out

    def test_figure_rejects_unknown_app(self, capsys):
        assert main(
            ["figure", "render", "fig6", "--apps", "doom", "--cores", "8",
             "--memops", "100"]
        ) == 2
        assert "unknown apps" in capsys.readouterr().err

    def test_apps_command_lists_all_twenty(self, capsys):
        assert main(["apps", "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("splash3") == 13
        assert out.count("parsec") == 7

    def test_unknown_app_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["sim", "run", "doom"])

    def test_profile_command_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "prof" / "report.txt"
        assert main(
            [
                "sim", "profile", "volrend", "--cores", "8", "--memops",
                "100", "--top", "5", "--out", str(out_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Ordered by: internal time" in out
        text = out_file.read_text()
        assert "volrend on widir @ 8 cores" in text
        assert "simulated cycles=" in text

    def test_profile_command_stdout_only(self, capsys):
        assert main(
            [
                "sim", "profile", "volrend", "--protocol", "baseline",
                "--cores", "8", "--memops", "100", "--sort", "cumulative",
                "--cold", "--top", "5", "--out", "-",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Ordered by: cumulative time" in out
        assert "wrote" not in out


class TestTraceCli:
    def test_trace_run_export_summarize(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        capture_path = tmp_path / "capture.json"
        assert main(
            [
                "trace", "run", "--app", "radiosity", "--cores", "8",
                "--memops", "200", "--out", str(trace_path),
                "--capture", str(capture_path), "--timeline", "--limit", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "counter tracks:" in out
        assert trace_path.exists() and capture_path.exists()

        assert main(["trace", "summarize", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "flight recorder:" in out

        text_path = tmp_path / "timeline.txt"
        assert main(
            [
                "trace", "export", str(capture_path), "--format", "text",
                "--out", str(text_path), "--limit", "20",
            ]
        ) == 0
        assert text_path.exists()

        chrome_path = tmp_path / "chrome.json"
        assert main(
            [
                "trace", "export", str(capture_path), "--format", "chrome",
                "--out", str(chrome_path),
            ]
        ) == 0
        from repro.obs import validate_chrome_trace_file

        assert validate_chrome_trace_file(chrome_path) == []

    def test_run_command_prints_latency_percentiles(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "latency p50/95/99" in out
