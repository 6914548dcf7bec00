"""Experiment harness.

:mod:`~repro.harness.runner` executes one (application, machine) pair and
returns a :class:`~repro.harness.runner.SimulationResult` with every metric
the paper reports. :mod:`~repro.harness.figures` builds each table/figure of
the evaluation section from those results, and
:mod:`~repro.harness.motivation` reproduces the Section II-C measurement
that motivates the design.

Fault tolerance: :mod:`~repro.harness.campaign` runs whole sweeps as
crash-safe-resumable campaigns on top of the
:mod:`~repro.harness.supervisor` worker pool (per-run timeouts,
heartbeats, seeded retry/backoff, graceful degradation). Those two
modules — and everything they pull in (``multiprocessing`` plumbing,
campaign telemetry) — resolve lazily on first attribute access so that
``import repro.harness`` (and therefore ``import repro.api``) stays as
cheap as it was before the campaign layer existed.
"""

from repro.harness.runner import SimulationResult, run_app, run_pair
from repro.harness.executor import (
    Executor,
    ExperimentPlan,
    RunRequest,
    default_executor,
    run_key,
)
from repro.harness.report_gen import generate_report
from repro.harness.results_io import load_results, save_results
from repro.harness.sweeps import (
    sweep_core_counts,
    sweep_protocols,
    sweep_thresholds,
)
from repro.harness.validate import validate_result
from repro.harness.figures import (
    figure10_scalability,
    figure5_sharer_histogram,
    figure6_mpki,
    figure7_memory_latency,
    figure8_execution_time,
    figure9_energy,
    table4_mpki_characterization,
    table5_hop_distribution,
    table6_sensitivity,
)
from repro.harness.motivation import section2c_sharing_probe

#: Lazily resolved exports: name -> (module, attribute). The campaign /
#: supervisor layer is only needed by campaign workflows, never by a plain
#: ``api.simulate`` call.
_LAZY = {
    "Campaign": ("repro.harness.campaign", "Campaign"),
    "CampaignError": ("repro.harness.campaign", "CampaignError"),
    "CampaignReport": ("repro.harness.campaign", "CampaignReport"),
    "CampaignResultSource": ("repro.harness.campaign", "CampaignResultSource"),
    "CampaignSpec": ("repro.harness.campaign", "CampaignSpec"),
    "CampaignStatus": ("repro.harness.campaign", "CampaignStatus"),
    "run_campaign": ("repro.harness.campaign", "run_campaign"),
    "RetryPolicy": ("repro.harness.supervisor", "RetryPolicy"),
    "ScriptedFaults": ("repro.harness.supervisor", "ScriptedFaults"),
    "SeededFaults": ("repro.harness.supervisor", "SeededFaults"),
    "WorkerSupervisor": ("repro.harness.supervisor", "WorkerSupervisor"),
}

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "CampaignResultSource",
    "CampaignSpec",
    "CampaignStatus",
    "Executor",
    "ExperimentPlan",
    "RetryPolicy",
    "RunRequest",
    "ScriptedFaults",
    "SeededFaults",
    "SimulationResult",
    "WorkerSupervisor",
    "default_executor",
    "run_campaign",
    "run_key",
    "generate_report",
    "load_results",
    "save_results",
    "sweep_core_counts",
    "sweep_protocols",
    "sweep_thresholds",
    "validate_result",
    "figure10_scalability",
    "figure5_sharer_histogram",
    "figure6_mpki",
    "figure7_memory_latency",
    "figure8_execution_time",
    "figure9_energy",
    "run_app",
    "run_pair",
    "section2c_sharing_probe",
    "table4_mpki_characterization",
    "table5_hop_distribution",
    "table6_sensitivity",
]


def __getattr__(name):
    """PEP 562: resolve the campaign/supervisor layer on first touch."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.harness' has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))
