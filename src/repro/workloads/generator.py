"""Trace synthesis: profile -> per-core operation traces.

``build_traces`` is a pure function of (profile, num_cores, length, seed):
the same inputs always yield the same traces, so the Baseline and WiDir
machines are driven by *identical* reference streams and their cycle counts
are directly comparable.

A trace is organized into ``profile.phases`` barrier-separated phases. Inside
a phase, each memory-reference slot draws an access class from the profile's
fractions (private-hot / private-streaming / shared / migratory), lock
sections are interleaved every ``lock_interval`` references, and geometric
think gaps between references realize the profile's memory intensity.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Tuple

from repro.cpu.trace import OP_LOAD, OP_STORE, OP_THINK, TraceChunk
from repro.engine.rng import INV_2_53, DeterministicRng, DrawBuffer, below
from repro.workloads.layout import LINE, SHARED_BASE, WORD, AddressLayout
from repro.workloads.patterns import (
    emit_barrier_episode,
    emit_lock_section,
    emit_migratory_access,
)
from repro.workloads.profiles import AppProfile

#: Most draws one memory-reference slot makes outside the emitters: think
#: gap, class roll, then a shared visit's migratory roll, group roll, word,
#: write roll and store value.
_SLOT_DRAWS = 7
#: ``randint(0, 1 << 30)`` as a modulus: the span of a stored value.
_VALUE_SPAN = (1 << 30) + 1


def build_core_trace(
    profile: AppProfile,
    core: int,
    num_cores: int,
    memops: int,
    seed: int = 0,
) -> TraceChunk:
    """Synthesize one core's trace with ``memops`` memory-reference slots.

    Returns a struct-of-arrays :class:`~repro.cpu.trace.TraceChunk`, written
    column by column: the common records (think gaps, hot, streaming and
    shared accesses) are appended inline, reading their draws straight from
    a :class:`~repro.engine.rng.DrawBuffer`; locks, barriers and migratory
    accesses go through the column-writing emitters in
    :mod:`~repro.workloads.patterns`. Each record takes its draws in a fixed
    order (a hot store: write roll, word, value), and every probability
    test compares the raw draw against its :func:`~repro.engine.rng.below`
    cut, which decides exactly as ``random() < p`` does; so the trace is a
    fixed function of the profile, core, machine size, length and seed
    (``tests/test_trace_golden.py`` pins it column by column).
    """
    draws = DeterministicRng(seed).split(f"{profile.name}-core{core}").draw_buffer()
    layout = AddressLayout(num_cores)
    chunk = TraceChunk()
    kinds_append = chunk.kinds.append
    addresses_append = chunk.addresses.append
    values_append = chunk.values.append
    args_append = chunk.args.append
    blocking_append = chunk.blocking.append

    # Think gaps: the inverse CDF of DeterministicRng.geometric with its
    # log(1 - p) hoisted; a mean of one instruction draws nothing.
    think_mean = max(1, round((1.0 - profile.mem_ratio) / max(profile.mem_ratio, 1e-6)))
    think_log = math.log(1.0 - 1.0 / float(think_mean)) if think_mean > 1 else 0.0
    log = math.log
    ceil = math.ceil

    phases = max(1, profile.phases)
    per_phase = max(1, memops // phases)
    cursor = core * 17  # de-correlate the streaming walks across cores
    since_lock = draws.randint(0, profile.lock_interval) if profile.lock_interval else 0
    # A shared visit emits `burst` references, so the per-visit roll must be
    # deflated for `shared_fraction` to hold as a fraction of *references*:
    # p = f / (b*(1-f) + f).
    f_shared = profile.shared_fraction
    burst = max(1, profile.shared_burst)
    shared_roll = f_shared / (burst * (1.0 - f_shared) + f_shared) if f_shared > 0 else 0.0
    shared_cut = below(shared_roll)
    cold_cut = below(shared_roll + profile.cold_fraction)
    migratory = profile.migratory_fraction > 0.0
    migratory_cut = below(profile.migratory_fraction)
    shared_words = profile.shared_words
    shared_span = max(0, shared_words - 1) + 1
    write_cut = below(profile.write_fraction)
    hot_base = layout.private_hot(core, 0)
    hot_span = max(0, profile.hot_words - 1) + 1
    cold_base = layout.private_cold(core, 0)
    cold_lines = profile.cold_region_lines
    lock_interval = profile.lock_interval
    lock_top = max(0, profile.locks - 1)

    # One (cumulative-weight cut, word-0 address, write cut) site per sharing
    # group size, in profile order; the group roll picks the first site
    # whose cumulative weight exceeds it, else the last. Per-sharer write
    # intensity scales inversely with the group size: a variable shared
    # machine-wide is written proportionally less often by each sharer (or
    # it would not stay shared). ``shared_write_fraction`` is the group-of-8
    # value; wider groups write less, narrower ones more.
    def shared_site(upto: float, group_size: int) -> Tuple[int, int, int]:
        size = min(group_size, num_cores)
        base = layout.shared_word(size, layout.group_of(core, size), 0)
        return below(upto), base, below(min(0.5, profile.shared_write_fraction * 8.0 / size))

    sites = []
    upto = 0.0
    for size, weight in profile.sharing_weights().items():
        upto += weight
        sites.append(shared_site(upto, size))
    only_site = None if sites else shared_site(0.0, 8)

    # `u` only ever grows, so `limit` (the last slot start with _SLOT_DRAWS
    # draws ready) stays safe while the emitters refill behind our back.
    u = draws.u
    pos = draws.pos
    limit = -1
    for phase in range(phases):
        emitted = 0
        while emitted < per_phase:
            emitted += 1
            if pos > limit:
                draws.pos = pos
                draws.reserve(_SLOT_DRAWS)
                limit = len(u) - _SLOT_DRAWS
            if think_mean > 1:
                # The quotient is >= 0, so `or 1` is max(1, ...).
                gap = ceil(log(1.0 - (u[pos] >> 11) * INV_2_53) / think_log) or 1
                pos += 1
            else:
                gap = 1
            kinds_append(OP_THINK)
            addresses_append(0)
            values_append(0)
            args_append(gap)
            blocking_append(True)
            roll = u[pos]
            pos += 1
            if roll < shared_cut:
                if migratory and u[pos] < migratory_cut:
                    draws.pos = pos + 1
                    emit_migratory_access(chunk, draws, layout, cursor, shared_words)
                    pos = draws.pos
                    emitted += 1  # migratory visits emit two references
                else:
                    if migratory:
                        pos += 1
                    if sites:
                        group_roll = u[pos]
                        pos += 1
                        for group_cut, base, site_write_cut in sites:
                            if group_roll < group_cut:
                                break  # else: the loop leaves the last site bound
                    else:
                        group_cut, base, site_write_cut = only_site
                    # `burst` reads of one word, the last one a write when
                    # the write roll says so: at most one write per visit.
                    address = base + (u[pos] % shared_span) * WORD
                    write = u[pos + 1] < site_write_cut
                    pos += 2
                    for _ in range(burst - 1 if write else burst):
                        kinds_append(OP_LOAD)
                        addresses_append(address)
                        values_append(0)
                        args_append(0)
                        blocking_append(True)
                    if write:
                        kinds_append(OP_STORE)
                        addresses_append(address)
                        values_append(u[pos] % _VALUE_SPAN)
                        args_append(0)
                        blocking_append(True)
                        pos += 1
                    emitted += burst - 1
            elif roll < cold_cut:
                # One line per access over a region far larger than the L1:
                # capacity misses, prefetch-friendly, so non-blocking.
                kinds_append(OP_LOAD)
                addresses_append(cold_base + (cursor % cold_lines) * LINE)
                values_append(0)
                args_append(0)
                blocking_append(False)
                cursor += 1
            else:
                # The core's private hot set (expected L1 hits).
                if u[pos] < write_cut:
                    kinds_append(OP_STORE)
                    addresses_append(hot_base + (u[pos + 1] % hot_span) * WORD)
                    values_append(u[pos + 2] % _VALUE_SPAN)
                    pos += 3
                else:
                    kinds_append(OP_LOAD)
                    addresses_append(hot_base + (u[pos + 1] % hot_span) * WORD)
                    values_append(0)
                    pos += 2
                args_append(0)
                blocking_append(True)
            if lock_interval:
                since_lock += 1
                if since_lock >= lock_interval:
                    since_lock = 0
                    draws.pos = pos
                    emit_lock_section(
                        chunk,
                        draws,
                        layout,
                        draws.randint(0, lock_top),
                        profile.lock_spin_reads,
                        profile.lock_critical_ops,
                    )
                    pos = draws.pos
        emit_barrier_episode(chunk, layout, phase, profile.barrier_spin_reads)

    draws.pos = pos
    _apply_blocking_fractions(chunk, draws, profile.load_block_fraction)
    # Appending leaves each column up to an eighth over-allocated; traces
    # are memoized and read for whole runs, so keep exact-size copies.
    chunk.kinds = chunk.kinds[:]
    chunk.addresses = chunk.addresses[:]
    chunk.values = chunk.values[:]
    chunk.args = chunk.args[:]
    chunk.blocking = chunk.blocking[:]
    return chunk


def _apply_blocking_fractions(
    chunk: TraceChunk, draws: DrawBuffer, block_fraction: float
) -> None:
    """Mark the profile's fraction of *private* loads as use-dependent.

    Shared-data, lock, and barrier loads stay blocking unconditionally:
    reads of shared structures feed immediate uses (pointer dereferences,
    flag tests), which is precisely why the paper's coherence misses sit on
    the critical path. Operates on the chunk columns in place, after the
    whole trace is synthesized: one draw per eligible private load, in
    trace order.
    """
    kinds = chunk.kinds
    addresses = chunk.addresses
    blocking = chunk.blocking
    eligible = [
        i
        for i, kind in enumerate(kinds)
        if kind == OP_LOAD and blocking[i] and addresses[i] < SHARED_BASE
    ]
    draws.reserve(len(eligible))
    pos = draws.pos
    cut = below(block_fraction)
    for i, roll in zip(eligible, draws.u[pos : pos + len(eligible)]):
        blocking[i] = roll < cut
    draws.pos = pos + len(eligible)


def iter_core_trace_chunks(
    profile: AppProfile,
    core: int,
    num_cores: int,
    memops: int,
    seed: int = 0,
    chunk_records: int = 8192,
):
    """Yield one core's trace as successive chunks of ``chunk_records`` ops.

    This is the recording seam: the trace recorder consumes these slices
    and the replay frontend streams them back through
    ``Core.run_trace(chunk_source=...)``. The underlying stream is the
    *same* :func:`build_core_trace` output — sliced, not re-generated —
    so a recorded trace is op-for-op identical to the live generator on
    every kernel and every protocol backend (the replay golden-digest
    tests lock this). Memory here is O(one core's trace); the written
    file is then replayable in O(chunk).
    """
    chunk = build_core_trace(profile, core, num_cores, memops, seed)
    total = len(chunk.kinds)
    for start in range(0, total, chunk_records):
        yield chunk.slice(start, min(start + chunk_records, total))
    if total == 0:
        yield TraceChunk()


#: Memoized machine traces. ``build_traces`` is pure and the harness calls
#: it twice per experiment point (once for Baseline, once for WiDir) with
#: identical arguments, so the second machine reuses the first's traces.
#: The cap bounds the memo's share of peak memory: raising it to cover a
#: whole figure suite's distinct traces costs more memory than the repeat
#: syntheses it saves cost time. :class:`~repro.workloads.profiles.AppProfile`
#: is a frozen dataclass, so the argument tuple is hashable; exotic
#: unhashable profiles (tests constructing ad-hoc objects) skip the cache.
_TRACE_CACHE: "OrderedDict[Tuple, List[TraceChunk]]" = OrderedDict()
_TRACE_CACHE_CAP = 8


def build_traces(
    profile: AppProfile,
    num_cores: int,
    memops_per_core: int,
    seed: int = 0,
) -> List[TraceChunk]:
    """Build the whole machine's traces (one chunk per core).

    Results are memoized on the (pure) argument tuple. Cached hits return
    a fresh *outer list*; the :class:`~repro.cpu.trace.TraceChunk` objects
    themselves are shared — the cores consume them strictly read-only
    (``blocking`` is finalized at synthesis time).
    """
    try:
        key = (profile, num_cores, memops_per_core, seed)
        cached = _TRACE_CACHE.get(key)
    except TypeError:  # unhashable ad-hoc profile: build uncached
        key = None
        cached = None
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        return list(cached)
    traces = [
        build_core_trace(profile, core, num_cores, memops_per_core, seed)
        for core in range(num_cores)
    ]
    if key is not None:
        _TRACE_CACHE[key] = traces
        if len(_TRACE_CACHE) > _TRACE_CACHE_CAP:
            _TRACE_CACHE.popitem(last=False)
        return list(traces)
    return traces
