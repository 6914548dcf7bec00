"""Deterministic, splittable random number generation.

Whole-system determinism is a hard requirement: two runs with the same
configuration and seed must produce identical cycle counts, or the
benchmark harness could not attribute differences to protocol changes.
Python's global :mod:`random` state is therefore never used. Instead each
component derives its own :class:`DeterministicRng` stream by *splitting*
a parent stream with a string label, so adding a consumer in one subsystem
never perturbs the draws seen by another.

The generator is SplitMix64 (Steele et al., "Fast Splittable Pseudorandom
Number Generators"), chosen for its tiny state, good statistical quality for
simulation workloads, and trivially portable integer arithmetic.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
#: 2**-53, the float ulp used to map 53 random bits onto [0, 1).
INV_2_53 = 1.0 / (1 << 53)


def _mix64(z: int) -> int:
    """Finalization mix of SplitMix64 (variant 13)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _hash_label(label: str) -> int:
    """Hash a split label into 64 bits, stable across processes.

    ``hash()`` is salted per-process for strings, so an FNV-1a hash is used
    instead to keep split streams reproducible across runs.
    """
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = (h ^ byte) * 0x100000001B3 & _MASK64
    return h


class DeterministicRng:
    """A splittable SplitMix64 pseudorandom stream.

    Parameters
    ----------
    seed:
        Any integer; it is mixed before use, so small consecutive seeds
        still yield uncorrelated streams.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = _mix64(seed & _MASK64)

    def next_u64(self) -> int:
        """Return the next raw 64-bit output.

        The :func:`_mix64` finalizer is inlined: this is the single hottest
        function in the simulator (every think gap, jitter, and backoff
        draws from it), and the extra call frame measurably matters. The
        arithmetic is bit-for-bit identical to ``_mix64``.
        """
        state = (self._state + _GOLDEN_GAMMA) & _MASK64
        self._state = state
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def split(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream identified by ``label``.

        Splitting does not advance this stream, so the set of child labels
        used elsewhere never changes the draws produced here.
        """
        return DeterministicRng(_mix64(self._state ^ _hash_label(label)))

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def random(self) -> float:
        """Return a uniform float in [0, 1) with 53 bits of precision.

        Like :meth:`next_u64`, the mix is inlined (identical arithmetic).
        """
        state = (self._state + _GOLDEN_GAMMA) & _MASK64
        self._state = state
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return ((z ^ (z >> 31)) >> 11) * INV_2_53

    def choice(self, seq):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle of ``items`` in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]

    def geometric(self, mean: float) -> int:
        """Sample a geometric-ish integer >= 1 with the given mean.

        Used for think-time gaps between memory references; a closed-form
        inverse-CDF sample keeps it branch-free and fast.
        """
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        u = self.random()
        # Inverse CDF of geometric distribution on {1, 2, ...}.
        return max(1, int(math.ceil(math.log(1.0 - u) / math.log(1.0 - p))))

    def draw_buffer(self) -> "DrawBuffer":
        """Return a :class:`DrawBuffer` continuing this stream's draws."""
        return DrawBuffer(self._state)


def below(p: float) -> int:
    """The raw-draw cut ``c`` with ``next_u64() < c`` exactly when ``random() < p``.

    :meth:`DeterministicRng.random` is ``(u >> 11) * 2**-53``, an exact
    scaling of an integer, so for ``k = u >> 11`` the test ``k * 2**-53 < p``
    is ``k < p * 2**53`` (also exact), i.e. ``k < ceil(p * 2**53)``, i.e.
    ``u < ceil(p * 2**53) << 11``. A loop comparing raw draws against cuts
    makes the same decisions as one comparing ``random()`` floats, without
    building a float per draw.
    """
    return math.ceil(p * (1 << 53)) << 11


#: Draws a :class:`DrawBuffer` precomputes per refill.
_DRAW_BLOCK = 4096


class DrawBuffer:
    """A stream's future draws, precomputed for a hot loop to index directly.

    SplitMix64's state advances by a constant per draw, so draw ``i`` from
    state ``s`` is the pure function ``mix64(s + (i+1)*gamma)``: numpy
    computes a whole block of them at once, bit-for-bit the values
    :meth:`DeterministicRng.next_u64` would return one at a time.

    ``u[i]`` is the stream's ``i``-th raw draw and ``pos`` the next unread
    index. A loop that reads ``u`` itself first calls :meth:`reserve`,
    advances ``pos`` by what it read, and stores it back; it tests a draw
    against a probability through :func:`below`. The list only ever grows
    in place, so local references stay valid across refills.
    :meth:`random` and :meth:`randint` read the same stream one draw at a
    time, refilling as needed, so code written for a
    :class:`DeterministicRng` runs unchanged on a buffer.
    """

    __slots__ = ("u", "pos", "_state")

    def __init__(self, state: int) -> None:
        self._state = state  # adopted, NOT re-mixed: we continue the stream
        self.u: list = []
        self.pos = 0

    def reserve(self, count: int) -> None:
        """Make at least ``count`` draws available from ``pos`` on."""
        missing = self.pos + count - len(self.u)
        if missing > 0:
            self._refill(max(missing, _DRAW_BLOCK))

    def _refill(self, n: int) -> None:
        import numpy as np

        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + np.uint64(_GOLDEN_GAMMA) * steps
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        # Plain Python ints on the way out: downstream address arithmetic
        # must not silently become numpy scalar arithmetic.
        self.u.extend(z.tolist())
        self._state = (self._state + n * _GOLDEN_GAMMA) & _MASK64

    def random(self) -> float:
        pos = self.pos
        if pos >= len(self.u):
            self._refill(_DRAW_BLOCK)
        self.pos = pos + 1
        return (self.u[pos] >> 11) * INV_2_53

    def randint(self, low: int, high: int) -> int:
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        pos = self.pos
        if pos >= len(self.u):
            self._refill(_DRAW_BLOCK)
        self.pos = pos + 1
        return low + self.u[pos] % (high - low + 1)
