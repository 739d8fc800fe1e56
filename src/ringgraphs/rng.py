"""Deterministic 64-bit seed streams and seeded shuffles.

Everything here is integer arithmetic on 64-bit words (splitmix64), so a
given seed produces the same values on every platform and Python build.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (value, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31), state


class SeedStream:
    """Stateful stream of 64-bit words derived from one seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        value, self._state = splitmix64(self._state)
        return value

    def next_below(self, bound: int) -> int:
        """Uniform draw from [0, bound) via rejection sampling (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


def shuffled_range(n: int, seed: int) -> list[int]:
    """Fisher-Yates shuffle of range(n), fully determined by the seed."""
    table = list(range(n))
    stream = SeedStream(seed)
    for i in range(n - 1, 0, -1):
        j = stream.next_below(i + 1)
        table[i], table[j] = table[j], table[i]
    return table


def permutation_vector(n: int, seed: int) -> np.ndarray:
    """Image vector of the seeded permutation of {0..n-1}."""
    return np.array(shuffled_range(n, seed), dtype=np.int64)
