"""Stability tests for the public ``repro.api`` surface.

The contract (docs/API.md): every name in ``repro.api.__all__`` keeps its
signature across minor releases, results are typed objects, importing the
facade stays cheap (no verification/observability/campaign machinery at
module load), and replaced entry points keep working for one release
behind ``DeprecationWarning``.
"""

import inspect
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.harness.runner import SimulationResult

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: The frozen surface: name -> exact parameter tuple. Additions must be
#: keyword-only with defaults, which shows up here as a deliberate diff.
EXPECTED_SIGNATURES = {
    "simulate": (
        "app", "protocol", "cores", "memops", "seed", "trace_seed",
        "max_wired_sharers", "config", "workers", "cache", "mac",
    ),
    "compare": (
        "app", "cores", "memops", "seed", "trace_seed",
        "max_wired_sharers", "workers", "cache",
    ),
    "sweep": (
        "kind", "apps", "app", "cores", "thresholds", "memops", "seed",
        "workers", "cache", "executor", "protocols", "macs",
    ),
    "protocols": (),
    "macs": (),
    "campaign": (
        "name", "apps", "out", "kind", "cores", "thresholds", "memops",
        "seed", "trace_seed", "workers", "cache", "timeout", "retries",
        "backoff_seed", "resume", "protocols", "trace_path", "trace_shards",
        "macs",
    ),
    "distributed_campaign": (
        "name", "apps", "out", "kind", "cores", "thresholds", "memops",
        "seed", "trace_seed", "workers", "shards", "host", "port", "cache",
        "store", "tenant", "retries", "backoff_seed", "lease_timeout",
        "timeout", "protocols", "trace_path", "trace_shards", "macs",
    ),
    "verify": (
        "campaign", "seed", "trials", "litmus", "litmus_schedules",
        "mutation",
    ),
    "trace": (
        "app", "protocol", "cores", "memops", "seed", "trace_seed",
        "max_wired_sharers", "sample_interval", "flight_recorder_depth",
        "mac",
    ),
    "record_trace": (
        "app", "out", "cores", "memops", "trace_seed", "chunk_records",
        "codec",
    ),
    "convert_trace": (
        "src", "out", "cores", "app", "chunk_records", "codec",
    ),
    "trace_info": ("path",),
    "validate_trace": ("path",),
    "replay": (
        "path", "protocol", "seed", "max_wired_sharers", "config",
        "snapshot_every", "mac", "snapshot_path", "expect_trace_id",
    ),
}

RESULT_TYPES = (
    "ComparisonResult", "MacInfo", "SweepResult", "TraceFileInfo",
    "TraceResult", "VerifyReport",
)


class TestSurface:
    def test_all_is_sorted_and_complete(self):
        assert api.__all__ == sorted(api.__all__)
        assert set(EXPECTED_SIGNATURES) | set(RESULT_TYPES) == set(api.__all__)

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIGNATURES))
    def test_signature_is_frozen(self, name):
        params = inspect.signature(getattr(api, name)).parameters
        assert tuple(params) == EXPECTED_SIGNATURES[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIGNATURES))
    def test_non_leading_params_are_keyword_only(self, name):
        required_keywords = {
            ("campaign", "apps"),
            ("campaign", "out"),
            ("convert_trace", "out"),
            ("distributed_campaign", "apps"),
            ("distributed_campaign", "out"),
            ("record_trace", "out"),
        }
        params = list(inspect.signature(getattr(api, name)).parameters.values())
        for param in params[1:]:
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (name, param)
            if (name, param.name) not in required_keywords:
                assert param.default is not inspect.Parameter.empty, (
                    name, param,
                )

    @pytest.mark.parametrize("name", RESULT_TYPES)
    def test_result_types_are_frozen_dataclasses(self, name):
        cls = getattr(api, name)
        assert cls.__dataclass_params__.frozen

    def test_import_stays_cheap(self):
        """``import repro.api`` must not drag in verification, obs export,
        or campaign machinery — they load lazily inside the functions."""
        script = (
            "import sys; import repro.api; "
            "heavy = [m for m in ('repro.verify.fuzz', 'repro.verify.litmus', "
            "'repro.harness.campaign', 'repro.harness.supervisor', "
            "'repro.harness.distributed', 'repro.harness.protocol', "
            "'repro.harness.resultstore', "
            "'repro.obs.export') if m in sys.modules]; "
            "assert not heavy, heavy"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_version_has_one_source(self):
        """The package metadata reads its version from ``repro.__version__``
        instead of pinning a second copy that can drift."""
        pyproject = (REPO_SRC.parent / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "repro.__version__"}' in pyproject
        assert '\nversion = "' not in pyproject


class TestBehaviour:
    def test_simulate_returns_simulation_result(self):
        result = api.simulate("volrend", cores=4, memops=100, cache=False)
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0

    def test_simulate_matches_legacy_run_app(self):
        from repro.config.presets import widir_config
        from repro.harness.runner import run_app

        via_api = api.simulate("volrend", cores=4, memops=100, cache=False)
        legacy = run_app("volrend", widir_config(num_cores=4), 100)
        assert via_api.to_dict() == legacy.to_dict()

    def test_compare_returns_typed_comparison(self):
        diff = api.compare("volrend", cores=4, memops=100, cache=False)
        assert isinstance(diff, api.ComparisonResult)
        assert diff.speedup > 0 and diff.energy_ratio > 0

    def test_sweep_protocols_labels_and_speedups(self):
        grid = api.sweep(
            "protocols", apps=("volrend",), cores=4, memops=100, cache=False
        )
        assert isinstance(grid, api.SweepResult)
        assert not grid.partial
        assert set(dict(grid)) == {"volrend/baseline/4c", "volrend/widir/4c/t3"}
        assert grid.speedups().keys() == {"volrend"}

    def test_sweep_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            api.sweep("meteor", apps=("volrend",))

    def test_simulate_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            api.simulate("volrend", protocol="meteor")

    def test_campaign_round_trip(self, tmp_path):
        report = api.campaign(
            "api-smoke", apps=("volrend",), out=tmp_path / "camp",
            cores=4, memops=100, cache=False, workers=1,
        )
        assert report.ok and report.completed == 2
        assert (tmp_path / "camp" / "digest.txt").exists()
        # Calling again resumes instead of re-running.
        again = api.campaign(
            "api-smoke", apps=("volrend",), out=tmp_path / "camp",
            cores=4, memops=100, cache=False, workers=1,
        )
        assert again.resumed == 2 and again.digest == report.digest

    def test_trace_is_digest_neutral(self):
        traced = api.trace("volrend", cores=4, memops=100)
        plain = api.simulate("volrend", cores=4, memops=100, cache=False)
        assert isinstance(traced, api.TraceResult)
        with_obs = traced.result.to_dict()
        without = plain.to_dict()
        # Only the embedded config blob may differ (obs.enabled flips);
        # every metric must be bit-identical.
        with_obs.pop("config"), without.pop("config")
        assert with_obs == without
        assert traced.capture["spans"] or traced.capture["events"]


class TestDeprecationShims:
    def test_run_app_warns_but_works(self):
        from repro.config.presets import widir_config

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            legacy = repro.run_app
        assert any(
            issubclass(w.category, DeprecationWarning)
            and "repro.api.simulate" in str(w.message)
            for w in caught
        )
        result = legacy("volrend", widir_config(num_cores=4), 100)
        assert isinstance(result, SimulationResult)

    def test_run_pair_warns_but_works(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            legacy = repro.run_pair
        assert any(
            issubclass(w.category, DeprecationWarning)
            and "repro.api.compare" in str(w.message)
            for w in caught
        )
        base, widir = legacy("volrend", num_cores=4, memops_per_core=100)
        assert base.cycles > 0 and widir.cycles > 0

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_dir_lists_the_stable_surface(self):
        listing = dir(repro)
        assert "api" in listing and "run_app" in listing
