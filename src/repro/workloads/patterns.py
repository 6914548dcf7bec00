"""Column-writing emitters for the synchronization and migratory patterns.

:func:`~repro.workloads.generator.build_core_trace` writes the common
records (think gaps, private hot-set and streaming accesses, shared-group
visits) inline. The rarer multi-record patterns live here, each appending
to a :class:`~repro.cpu.trace.TraceChunk`'s columns and modelling one
archetypal behaviour from the coherence literature:

* **migratory** — one core at a time read-modify-writes a datum, then the
  next core takes over;
* **lock section** — test-and-test-and-set acquire (spin loads + RMW),
  a short critical section, and a releasing store;
* **barrier episode** — an RMW on the barrier counter, spin loads on it,
  and the cross-core alignment op.

The emitters draw through ``random``/``randint`` on either a
:class:`~repro.engine.rng.DeterministicRng` or the generator's
:class:`~repro.engine.rng.DrawBuffer`, so a trace is a pure function of
(profile, config, seed).
"""

from __future__ import annotations

from typing import Union

from repro.cpu.trace import TraceChunk
from repro.engine.rng import DeterministicRng, DrawBuffer
from repro.workloads.layout import AddressLayout

Draws = Union[DeterministicRng, DrawBuffer]


def emit_migratory_access(
    chunk: TraceChunk,
    rng: Draws,
    layout: AddressLayout,
    token: int,
    shared_words: int,
) -> None:
    """Read-modify-write of a migratory datum (exclusive ping-ponging)."""
    # Migratory data is modelled as pairwise-shared lines indexed by a
    # token that advances with program progress, so ownership migrates.
    address = layout.shared_word(2, token % 8, rng.randint(0, max(0, shared_words - 1)))
    chunk.append_load(address)
    chunk.append_store(address, token)


def emit_lock_section(
    chunk: TraceChunk,
    rng: Draws,
    layout: AddressLayout,
    lock_id: int,
    spin_reads: int,
    critical_ops: int,
) -> None:
    """Test-and-test-and-set acquire, critical section, release.

    The spin loads put the lock line into wide read-sharing — at high core
    counts this is the canonical source of the paper's 50+-sharers bin.
    """
    lock_address = layout.lock(lock_id)
    for _ in range(spin_reads):
        chunk.append_load(lock_address)
    chunk.append_rmw(lock_address)
    # Critical section: touch the data the lock guards (its own line, so
    # these stores do not collide with other cores' lock acquisitions).
    for i in range(critical_ops):
        address = layout.lock_data(lock_id, i)
        if rng.random() < 0.5:
            chunk.append_load(address)
        else:
            chunk.append_store(address, rng.randint(0, 1 << 20))
    chunk.append_store(lock_address, 0)  # release


def emit_barrier_episode(
    chunk: TraceChunk,
    layout: AddressLayout,
    phase: int,
    spin_reads: int,
) -> None:
    """Arrive at a barrier: bump the counter, spin on it, then align."""
    barrier_address = layout.barrier_word(phase)
    chunk.append_rmw(barrier_address)
    for _ in range(spin_reads):
        chunk.append_load(barrier_address)
    chunk.append_barrier(phase)
