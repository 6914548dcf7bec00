"""Unit tests for the access patterns a synthesized trace is made of.

Think gaps, hot-set, streaming and shared-group accesses are written
inline by ``build_core_trace``, so their checks run against its output,
on profiles that force every slot into the pattern under test. Migratory
accesses, lock sections and barrier episodes are column-writing emitters
and are checked directly.
"""

from dataclasses import replace

from repro.cpu.trace import (
    OP_BARRIER,
    OP_LOAD,
    OP_RMW,
    OP_STORE,
    OP_THINK,
    TraceChunk,
)
from repro.engine.rng import DeterministicRng
from repro.workloads.generator import build_core_trace
from repro.workloads.layout import LOCK_BASE, SHARED_BASE, AddressLayout
from repro.workloads.patterns import (
    emit_barrier_episode,
    emit_lock_section,
    emit_migratory_access,
)
from repro.workloads.profiles import APP_PROFILES


def make():
    return TraceChunk(), DeterministicRng(7), AddressLayout(16)


def only(**knobs):
    """A one-phase, lock-free profile whose slots all take one pattern."""
    defaults = dict(
        shared_fraction=0.0,
        cold_fraction=0.0,
        migratory_fraction=0.0,
        lock_interval=0,
        phases=1,
        barrier_spin_reads=0,
    )
    defaults.update(knobs)
    return replace(APP_PROFILES["radiosity"], **defaults)


def memory_records(trace):
    """Every load and store, as ``(kind, address, blocking)``."""
    return [
        (trace.kinds[i], trace.addresses[i], trace.blocking[i])
        for i in range(len(trace))
        if trace.kinds[i] in (OP_LOAD, OP_STORE)
    ]


def shared_visits(trace):
    """The shared-region records of each slot (slots start at a think)."""
    visits = []
    for i, kind in enumerate(trace.kinds):
        if kind == OP_THINK:
            visits.append([])
        elif kind in (OP_LOAD, OP_STORE) and SHARED_BASE <= trace.addresses[i] < LOCK_BASE:
            visits[-1].append((kind, trace.addresses[i]))
    return visits


class TestThink:
    def test_emits_positive_instruction_burst(self):
        trace = build_core_trace(APP_PROFILES["barnes"], 1, 16, 300, seed=7)
        kinds = trace.kinds
        thinks = [i for i, kind in enumerate(kinds) if kind == OP_THINK]
        assert thinks and thinks[0] == 0  # every slot opens with its gap
        assert all(trace.args[i] >= 1 for i in thinks)
        assert len(set(trace.args[i] for i in thinks)) > 1
        # One gap per slot: a think is never followed by another think.
        assert all(kinds[i + 1] != OP_THINK for i in thinks)

    def test_zero_mean_gives_one_instruction_gaps(self):
        # mem_ratio 1.0 leaves no instructions between references: the
        # think mean is zero and every gap is the one-instruction minimum.
        trace = build_core_trace(only(mem_ratio=1.0), 0, 16, 200, seed=7)
        gaps = [trace.args[i] for i, kind in enumerate(trace.kinds) if kind == OP_THINK]
        assert len(gaps) == 200
        assert set(gaps) == {1}


class TestHotAccess:
    def test_read_and_write_variants(self):
        trace = build_core_trace(only(write_fraction=0.3), 3, 16, 200, seed=7)
        kinds = {kind for kind, _address, _blocking in memory_records(trace)}
        assert kinds == {OP_LOAD, OP_STORE}

    def test_addresses_stay_in_own_region(self):
        layout = AddressLayout(16)
        trace = build_core_trace(only(hot_words=8), 2, 16, 300, seed=7)
        records = memory_records(trace)
        assert len(records) == 300
        low = layout.private_hot(2, 0)
        high = layout.private_hot(2, 7)
        assert all(low <= address <= high for _kind, address, _blocking in records)
        assert len({address for _kind, address, _blocking in records}) == 8


class TestStreaming:
    def test_cursor_advances_one_line_per_access(self):
        layout = AddressLayout(16)
        trace = build_core_trace(only(cold_fraction=1.0), 0, 16, 50, seed=7)
        addresses = [address for _kind, address, _blocking in memory_records(trace)]
        assert addresses[0] == layout.private_cold(0, 0)
        assert all(b - a == 64 for a, b in zip(addresses, addresses[1:]))

    def test_wraps_at_region_end(self):
        layout = AddressLayout(16)
        # Core 1's walk starts 17 lines in: line 7 of a 10-line region.
        trace = build_core_trace(only(cold_fraction=1.0, cold_region_lines=10), 1, 16, 25, seed=7)
        addresses = [address for _kind, address, _blocking in memory_records(trace)]
        expected = [layout.private_cold(1, (17 + i) % 10) for i in range(25)]
        assert addresses == expected

    def test_streaming_loads_are_non_blocking(self):
        trace = build_core_trace(only(cold_fraction=1.0), 0, 16, 50, seed=7)
        records = memory_records(trace)
        assert len(records) == 50
        assert all(kind == OP_LOAD and not blocking for kind, _address, blocking in records)


class TestSharedAccess:
    def test_burst_emits_requested_count(self):
        trace = build_core_trace(
            only(shared_fraction=1.0, shared_burst=4, shared_write_fraction=0.0),
            0, 16, 200, seed=7,
        )
        visits = shared_visits(trace)
        assert len(visits) == 50
        for visit in visits:
            assert len(visit) == 4
            assert len({address for _kind, address in visit}) == 1  # same word re-touched

    def test_at_most_one_write_per_visit(self):
        trace = build_core_trace(
            only(shared_fraction=1.0, shared_burst=3, shared_write_fraction=1.0),
            0, 16, 120, seed=7,
        )
        visits = shared_visits(trace)
        for visit in visits:
            kinds = [kind for kind, _address in visit]
            assert kinds[:-1] == [OP_LOAD] * (len(kinds) - 1)  # a write comes last
        # The effective write fraction is clamped at 0.5 even when asked
        # for 1.0, so roughly half the visits write.
        writes = sum(1 for visit in visits if visit[-1][0] == OP_STORE)
        assert 0 < writes < len(visits)

    def test_group_write_scaling(self):
        """Wider groups write less often per visit (8/size scaling)."""

        def writes(group_size):
            profile = only(
                shared_fraction=1.0,
                shared_burst=1,
                shared_write_fraction=0.2,
                sharing_mix=((group_size, 1.0),),
            )
            trace = build_core_trace(profile, 0, 64, 400, seed=3)
            return trace.kinds.count(OP_STORE)

        assert writes(64) < writes(8)

    def test_addresses_in_shared_region(self):
        trace = build_core_trace(only(shared_fraction=1.0, shared_burst=2), 0, 16, 100, seed=7)
        records = memory_records(trace)
        assert len(records) == 100
        assert all(SHARED_BASE <= address < LOCK_BASE for _kind, address, _blocking in records)


class TestMigratory:
    def test_read_then_write_pair(self):
        chunk, rng, layout = make()
        emit_migratory_access(chunk, rng, layout, token=5, shared_words=8)
        assert chunk.kinds == [OP_LOAD, OP_STORE]
        assert chunk.addresses[0] == chunk.addresses[1]
        assert chunk.values[1] == 5


class TestLockSection:
    def test_structure_spins_rmw_critical_release(self):
        chunk, rng, layout = make()
        emit_lock_section(chunk, rng, layout, lock_id=2, spin_reads=3, critical_ops=4)
        kinds = chunk.kinds
        assert kinds[:3] == [OP_LOAD] * 3          # spins
        assert kinds[3] == OP_RMW                   # acquire
        assert kinds[-1] == OP_STORE                # release
        assert len(chunk) == 3 + 1 + 4 + 1

    def test_critical_data_on_separate_line(self):
        chunk, rng, layout = make()
        emit_lock_section(chunk, rng, layout, lock_id=0, spin_reads=1, critical_ops=4)
        lock_line = layout.lock(0) // 64
        for address in chunk.addresses[2:-1]:  # the critical-section accesses
            assert address // 64 != lock_line

    def test_lock_addresses_in_lock_region(self):
        chunk, rng, layout = make()
        emit_lock_section(chunk, rng, layout, lock_id=3, spin_reads=2, critical_ops=1)
        assert all(address >= LOCK_BASE for address in chunk.addresses)


class TestBarrierEpisode:
    def test_rmw_spins_then_alignment(self):
        chunk, _rng, layout = make()
        emit_barrier_episode(chunk, layout, phase=2, spin_reads=3)
        kinds = chunk.kinds
        assert kinds[0] == OP_RMW
        assert kinds[1:4] == [OP_LOAD] * 3
        assert kinds[4] == OP_BARRIER
        assert chunk.args[4] == 2

    def test_distinct_phases_use_distinct_lines(self):
        chunk, _rng, layout = make()
        emit_barrier_episode(chunk, layout, phase=0, spin_reads=0)
        emit_barrier_episode(chunk, layout, phase=1, spin_reads=0)
        assert chunk.addresses[0] // 64 != chunk.addresses[2] // 64
