"""Deterministic 64-bit seed streams and seeded shuffles.

Every draw goes through one splitmix64 mix, first_draws, so a given seed
produces the same values on every platform and Python build.
"""

from __future__ import annotations

from array import array

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# shuffle draws mixed per numpy call: 512 KiB per uint64 temporary
_DRAW_CHUNK = 1 << 16


class SeedStream:
    """Stateful stream of 64-bit words derived from one seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK  # the splitmix64 state of the last draw

    def next_u64(self) -> int:
        value = int(first_draws(np.array([self.state], dtype=np.uint64))[0])
        self.state = (self.state + _GOLDEN) & _MASK
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


def first_draws(seeds: np.ndarray) -> np.ndarray:
    """SeedStream(s).next_u64() for each uint64 seed s, in uint64 array
    arithmetic, which wraps mod 2^64 (a numpy scalar would warn)."""
    z = seeds + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def shuffled_range(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates shuffle of range(n), fully determined by the seed: step
    i = n-1..1 swaps position i with SeedStream(seed).next_below(i + 1), in
    a C int array (4 bytes a state) that the int32 result shares."""
    table = array("i", range(n))
    for i, j in zip(range(n - 1, 0, -1), _swap_partners(n, seed)):
        table[i], table[j] = table[j], table[i]
    return np.frombuffer(table, dtype=np.intc)


def _swap_partners(n: int, seed: int):
    """The draws of shuffled_range's steps i = n-1..1, in order.

    splitmix64 is counter based: t draws after state s, the state is
    s + t * _GOLDEN.  So the draws of up to _DRAW_CHUNK steps are mixed at
    once, by first_draws of the states they follow.  They stand up to the
    first draw that next_below would reject; that step is then drawn by
    SeedStream itself, and the next chunk starts from the state it leaves."""
    state = seed & _MASK
    i = n - 1
    while i > 0:
        k = min(i, _DRAW_CHUNK)
        z = first_draws(np.arange(k, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(state))
        bound = np.arange(i + 1, i + 1 - k, -1, dtype=np.uint64)
        spill = (np.uint64(0) - bound) % bound  # 2^64 mod bound
        rejected = np.flatnonzero((spill != 0) & (z >= np.uint64(0) - spill))
        good = int(rejected[0]) if len(rejected) else k
        yield from (z[:good] % bound[:good]).tolist()
        state = (state + good * _GOLDEN) & _MASK
        i -= good
        if good < k:
            stream = SeedStream(state)
            yield stream.next_below(i + 1)
            state = stream.state
            i -= 1
