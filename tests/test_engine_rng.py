"""Unit and property tests for the deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.rng import INV_2_53, DeterministicRng, below


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(123)
        b = DeterministicRng(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]

    def test_split_is_stable_and_independent(self):
        parent = DeterministicRng(42)
        child1 = parent.split("cache-0")
        # Splitting again with the same label yields the same stream.
        child2 = DeterministicRng(42).split("cache-0")
        assert [child1.next_u64() for _ in range(10)] == [
            child2.next_u64() for _ in range(10)
        ]

    def test_split_does_not_advance_parent(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        a.split("x")
        a.split("y")
        assert a.next_u64() == b.next_u64()

    def test_distinct_labels_distinct_streams(self):
        parent = DeterministicRng(9)
        s1 = parent.split("alpha")
        s2 = parent.split("beta")
        assert [s1.next_u64() for _ in range(8)] != [s2.next_u64() for _ in range(8)]


class TestDistributionContracts:
    @given(st.integers(0, 2**32), st.integers(-100, 100), st.integers(0, 200))
    def test_randint_in_range(self, seed, low, span):
        rng = DeterministicRng(seed)
        high = low + span
        for _ in range(20):
            value = rng.randint(low, high)
            assert low <= value <= high

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).randint(5, 4)

    @given(st.integers(0, 2**32))
    def test_random_unit_interval(self, seed):
        rng = DeterministicRng(seed)
        for _ in range(50):
            x = rng.random()
            assert 0.0 <= x < 1.0

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice([])

    @given(st.lists(st.integers(), min_size=1, max_size=20), st.integers(0, 2**16))
    def test_choice_returns_member(self, items, seed):
        rng = DeterministicRng(seed)
        assert rng.choice(items) in items

    @given(st.lists(st.integers(), max_size=30), st.integers(0, 2**16))
    def test_shuffle_is_permutation(self, items, seed):
        rng = DeterministicRng(seed)
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)

    @given(st.floats(min_value=0.5, max_value=100.0), st.integers(0, 2**16))
    def test_geometric_at_least_one(self, mean, seed):
        rng = DeterministicRng(seed)
        for _ in range(20):
            assert rng.geometric(mean) >= 1

    def test_geometric_mean_approximates_target(self):
        rng = DeterministicRng(1234)
        samples = [rng.geometric(10.0) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        assert 9.0 < mean < 11.0

    def test_randint_covers_range_uniformly_enough(self):
        rng = DeterministicRng(5)
        counts = {}
        for _ in range(6000):
            counts[rng.randint(0, 5)] = counts.get(rng.randint(0, 5), 0) + 1
        assert set(counts) == set(range(6))


class TestDrawBuffer:
    """A draw buffer is the scalar stream, precomputed in numpy blocks."""

    def test_draws_match_the_scalar_stream_across_refills(self):
        scalar = DeterministicRng(99).split("core-3")
        draws = DeterministicRng(99).split("core-3").draw_buffer()
        draws.reserve(10_000)  # spans more than one default block
        assert len(draws.u) >= 10_000 and draws.pos == 0
        assert draws.u[:10_000] == [scalar.next_u64() for _ in range(10_000)]
        assert all(type(x) is int for x in draws.u[:8])

    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 3), max_size=300))
    def test_random_and_randint_continue_the_stream(self, seed, calls):
        scalar = DeterministicRng(seed)
        draws = DeterministicRng(seed).draw_buffer()
        for call in calls:
            if call == 0:
                assert draws.random() == scalar.random()
            elif call == 1:
                assert draws.randint(0, 1 << 30) == scalar.randint(0, 1 << 30)
            elif call == 2:
                assert draws.randint(-5, 5) == scalar.randint(-5, 5)
            else:  # a loop reading the raw draws itself
                draws.reserve(2)
                pos = draws.pos
                assert (draws.u[pos] < below(0.3)) == (scalar.random() < 0.3)
                assert draws.u[pos + 1] % 16 == scalar.randint(0, 15)
                draws.pos = pos + 2

    def test_reserve_grows_in_place(self):
        draws = DeterministicRng(1).draw_buffer()
        u = draws.u
        draws.reserve(5)
        first = len(u)
        draws.pos = first - 2
        draws.reserve(5)
        assert draws.u is u
        assert len(u) > first

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).draw_buffer().randint(5, 4)


class TestBelow:
    """A raw draw under ``below(p)`` is exactly a ``random()`` under ``p``."""

    @given(
        st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
        st.integers(0, 2**64 - 1),
    )
    def test_cut_decides_as_the_float_test(self, p, u):
        assert (u < below(p)) == ((u >> 11) * INV_2_53 < p)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(-(1 << 12), 1 << 12))
    def test_draws_next_to_the_cut(self, p, offset):
        u = min(max(below(p) + offset, 0), 2**64 - 1)
        assert (u < below(p)) == ((u >> 11) * INV_2_53 < p)

    def test_edges(self):
        assert below(0.0) == 0  # no draw is below 0
        assert below(1.0) == 1 << 64  # every draw is below 1
        assert below(0.5) == 1 << 63
