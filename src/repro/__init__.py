"""WiDir: a wireless-enabled directory cache coherence protocol.

Full-system Python reproduction of *WiDir: A Wireless-Enabled Directory
Cache Coherence Protocol* (Franques et al., HPCA 2021): an event-driven
manycore simulator with a MESI Dir_i_B baseline, the WiDir protocol
(Wireless state, BrWirUpgr/WirUpd/WirDwgr/WirInv transactions, Jamming and
ToneAck primitives), a wired 2D-mesh NoC, a BRS-MAC wireless NoC, synthetic
SPLASH-3/PARSEC workload models, energy accounting, and a harness that
regenerates every table and figure of the paper's evaluation.

Quickstart (the stable API lives in :mod:`repro.api`; see docs/API.md)::

    from repro import api

    diff = api.compare("radiosity", cores=16, memops=500)
    print(diff.speedup)                 # > 1.0: WiDir is faster

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the system
inventory and the paper-to-repo substitution notes.
"""

from repro.config import (
    SystemConfig,
    baseline_config,
    paper_config,
    protocol_config,
    widir_config,
)
from repro.harness.runner import SimulationResult
from repro.system import Manycore
from repro.workloads import ALL_APPS, APP_PROFILES, AppProfile, build_traces

__version__ = "1.3.0"

__all__ = [
    "ALL_APPS",
    "APP_PROFILES",
    "AppProfile",
    "Manycore",
    "SimulationResult",
    "SystemConfig",
    "api",
    "baseline_config",
    "build_traces",
    "paper_config",
    "protocol_config",
    "widir_config",
    "__version__",
]


def __getattr__(name):
    """Lazy submodule access (PEP 562).

    ``repro.api`` is resolved on first touch so ``from repro import api``
    works without eagerly importing the facade everywhere.
    """
    if name == "api":
        import repro.api as api_module

        return api_module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
