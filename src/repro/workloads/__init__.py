"""Synthetic SPLASH-3 / PARSEC workload models.

The paper evaluates 20 applications (Table IV). Running their binaries needs
an x86 execution-driven simulator, so — per the substitution policy in
DESIGN.md — each application is modelled as a *memory-reference generator*
whose observable statistics (miss ratio, read/write mix, sharing degree,
synchronization intensity) are calibrated to the paper's characterization.
The coherence protocol under study only ever sees the reference stream, so
this preserves exactly the behaviour the evaluation depends on.

Layout: :mod:`~repro.workloads.layout` fixes the address-space geometry,
:mod:`~repro.workloads.profiles` declares the 20 application profiles,
:mod:`~repro.workloads.generator` synthesizes per-core traces from a profile
straight into :class:`~repro.cpu.trace.TraceChunk` columns, and
:mod:`~repro.workloads.patterns` holds its column-writing emitters for the
migratory, lock and barrier patterns.
"""

from repro.workloads.generator import build_traces
from repro.workloads.layout import AddressLayout
from repro.workloads.profiles import ALL_APPS, APP_PROFILES, AppProfile, SharingMix

__all__ = [
    "ALL_APPS",
    "APP_PROFILES",
    "AddressLayout",
    "AppProfile",
    "SharingMix",
    "build_traces",
]
