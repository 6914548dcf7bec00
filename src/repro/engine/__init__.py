"""Discrete-event simulation kernel.

The engine is deliberately small: a cycle-resolution event queue
(:class:`~repro.engine.batch.CohortQueue`; the heap
:class:`~repro.engine.events.EventQueue` is its ordering reference), a
simulator facade that owns the clock
(:class:`~repro.engine.simulator.Simulator`), and a deterministic
splittable RNG (:class:`~repro.engine.rng.DeterministicRng`). Every other
subsystem (caches, NoCs, coherence controllers, cores) is written as a set of
callbacks scheduled on this kernel, which keeps whole-system runs reproducible
bit-for-bit from a single seed.
"""

from repro.engine.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.engine.events import EventQueue
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator

__all__ = [
    "ConfigurationError",
    "DeterministicRng",
    "EventQueue",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "Simulator",
]
