"""The pointwise route: one state at a time, written apart from the
vectorised image tables so that each route checks the other.

A state is a payload together with its space.  Residue spaces carry
integers; matrix spaces carry row-major entry tuples (a, b, c, d), with
c = 0 on the upper-triangular ring; polynomial quotients carry coefficient
tuples, low degree first; bit vector spaces carry 0/1 tuples whose leftmost
bit is the most significant in the index.  The index codecs below spell
that order out per space kind, and `apply` applies one map to one state.
Nothing here uses the package's table, digit, payload or shuffle code; the
seeded shuffle that defines the perm maps and the sampled distance sources
is written out below one splitmix64 draw at a time.  The parse of a
run's comment header back into its argument vector lives here too, and so
does image_tables, the one use of the package's tables here: a family's
per-map tables, which the tests hand to the union-find and sorting oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import floor, gcd
from typing import Any, Iterator

import numpy as np

from ringgraphs.maps import (
    Affine,
    CARule,
    Dickson,
    Exp,
    MapExpr,
    MapFamily,
    MatQuad,
    Perm,
    PolyAddConst,
    PolyDeriv,
    PolySquare,
    PowerPlus,
    WSMap,
    format_map,
    image_table,
)
from ringgraphs.cli import RunConfig
from ringgraphs.graphs import SimpleGraph
from ringgraphs.numtheory import factorize
from ringgraphs.spaces import (
    BitVec,
    Mat2,
    PolyQuot,
    ResidueSpace,
    StateSpace,
    UpperTri2,
    Zn,
    ZnFromTwo,
    ZnNonzero,
    ZnUnits,
)


@dataclass(frozen=True)
class State:
    space: StateSpace
    payload: Any


# -- index codecs -------------------------------------------------------------


# first member of each residue space whose members are a run of residues
_RESIDUE_START = {Zn: 0, ZnNonzero: 1, ZnFromTwo: 2}


@lru_cache(maxsize=16)
def _mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for every squarefree divisor d of n, by trial division."""
    primes, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    out = [(1, 1)]
    for p in primes:
        out += [(d * p, -mu) for d, mu in out]
    return tuple(out)


def units_below(n: int, x: int) -> int:
    """How many r in [0, x) have gcd(r, n) = 1: the index of the unit x in
    units:n, whose members are those r in increasing order.  Counted by
    inclusion-exclusion over the multiples of n's primes in [0, x)."""
    return sum(mu * -(-x // d) for d, mu in _mobius_divisors(n))


def payload_to_index(space: StateSpace, payload) -> int:
    if isinstance(space, ResidueSpace):
        n = space.n
        if isinstance(space, ZnUnits):
            ok = 0 <= payload < n and gcd(payload, n) == 1
            idx = units_below(n, payload)
        else:
            idx = payload - _RESIDUE_START[type(space)]
            ok = 0 <= idx and payload < n
        if not ok:
            raise ValueError(f"residue {payload} not in {space.spec()}")
        return idx
    if isinstance(space, Mat2):
        n = space.n
        a, b, c, d = payload
        if not all(0 <= v < n for v in (a, b, c, d)):
            raise ValueError(f"entries {payload} out of range mod {n}")
        return ((a * n + b) * n + c) * n + d
    if isinstance(space, UpperTri2):
        n = space.n
        a, b, c, d = payload
        if c != 0:
            raise ValueError("lower-left entry must be 0 in the upper-triangular ring")
        if not all(0 <= v < n for v in (a, b, d)):
            raise ValueError(f"entries {payload} out of range mod {n}")
        return (a * n + b) * n + d
    if isinstance(space, PolyQuot):
        n = space.n
        if len(payload) != space.k:
            raise ValueError(f"expected {space.k} coefficients")
        if not all(0 <= c < n for c in payload):
            raise ValueError(f"coefficients {payload} out of range mod {n}")
        out = 0
        for c in reversed(payload):
            out = out * n + c
        return out
    if isinstance(space, BitVec):
        if len(payload) != space.width or not all(b in (0, 1) for b in payload):
            raise ValueError(f"expected a {space.width}-bit 0/1 tuple")
        out = 0
        for b in payload:
            out = (out << 1) | b
        return out
    raise TypeError(f"unknown space {space!r}")


def index_to_payload(space: StateSpace, index: int):
    if isinstance(space, ZnUnits):
        # the least r with index + 1 units in [0, r]
        n = space.n
        return bisect_left(range(n), index + 1, key=lambda r: units_below(n, r + 1))
    if isinstance(space, ResidueSpace):
        return index + _RESIDUE_START[type(space)]
    if isinstance(space, (Mat2, UpperTri2)):
        n = space.n
        wide = isinstance(space, Mat2)
        d = index % n
        c = (index // n) % n if wide else 0
        b = (index // n ** (1 + wide)) % n
        a = (index // n ** (2 + wide)) % n
        return (a, b, c, d)
    if isinstance(space, PolyQuot):
        coeffs = []
        for _ in range(space.k):
            coeffs.append(index % space.n)
            index //= space.n
        return tuple(coeffs)
    if isinstance(space, BitVec):
        return tuple((index >> (space.width - 1 - i)) & 1 for i in range(space.width))
    raise TypeError(f"unknown space {space!r}")


def index_of(space: StateSpace, state: State) -> int:
    if state.space != space:
        raise ValueError("state belongs to a different space")
    return payload_to_index(space, state.payload)


def state_at(space: StateSpace, index: int) -> State:
    if not 0 <= index < space.size:
        raise ValueError(f"index {index} out of range for {space.spec()}")
    return State(space, index_to_payload(space, index))


def enumerate_states(space: StateSpace) -> Iterator[State]:
    for i in range(space.size):
        yield State(space, index_to_payload(space, i))


# -- application --------------------------------------------------------------


def proper_divisor_sum(x: int) -> int:
    """Sum of divisors d of x with 1 <= d < x; 0 for x in {0, 1}."""
    if x < 0:
        raise ValueError("proper_divisor_sum expects a nonnegative integer")
    if x <= 1:
        return 0
    total = 1
    for p, e in factorize(x).factors:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total - x


def ca_step(rule: int, bits: tuple[int, ...]) -> tuple[int, ...]:
    """One synchronous update of an elementary CA with periodic boundary."""
    w = len(bits)
    if w < 3:
        raise ValueError("cellular automata need width >= 3")
    if not 0 <= rule <= 255:
        raise ValueError("rule number must be in 0..255")
    out = []
    for i in range(w):
        code = 4 * bits[(i - 1) % w] + 2 * bits[i] + bits[(i + 1) % w]
        out.append((rule >> code) & 1)
    return tuple(out)


def _mat_mul(x, y, n):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 * a2 + b1 * c2) % n,
        (a1 * b2 + b1 * d2) % n,
        (c1 * a2 + d1 * c2) % n,
        (c1 * b2 + d1 * d2) % n,
    )


def _mat_pow(x, e: int, n):
    result = (1 % n, 0, 0, 1 % n)
    for _ in range(e):
        result = _mat_mul(result, x, n)
    return result


_MASK = (1 << 64) - 1


def _shuffle_steps(n: int, seed: int) -> Iterator[tuple[int, int]]:
    """The swaps (i, j) of a Fisher-Yates shuffle of range(n): step
    i = n-1..1 swaps position i with a uniform draw j from [0, i] by
    rejection sampling on a splitmix64 stream started at the seed."""
    state = seed & _MASK
    for i in range(n - 1, 0, -1):
        limit = (1 << 64) - (1 << 64) % (i + 1)
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                break
        yield i, z % (i + 1)


def shuffled_range(n: int, seed: int) -> list[int]:
    """The seeded Fisher-Yates shuffle of range(n), step by step."""
    table = list(range(n))
    for i, j in _shuffle_steps(n, seed):
        table[i], table[j] = table[j], table[i]
    return table


def shuffled_top(n: int, seed: int, count: int) -> list[int]:
    """shuffled_range(n, seed)[n - count:] (0 < count < n) from the first
    count steps alone: no later step moves position i after step i.  Only
    the positions those steps touched are held, so it serves where the
    whole list of n ints would not fit."""
    moved: dict[int, int] = {}
    top = []
    for i, j in islice(_shuffle_steps(n, seed), count):
        top.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return top[::-1]


@lru_cache(maxsize=8)
def _perm_table(n: int, seed: int) -> tuple[int, ...]:
    """One shuffle per (n, seed), not one per state."""
    return tuple(shuffled_range(n, seed))


def apply(expr: MapExpr, state: State) -> State | None:
    """Apply one map to one state; None when the image escapes the space."""
    space = state.space
    if isinstance(expr, Perm):
        return state_at(space, _perm_table(space.size, expr.seed)[index_of(space, state)])

    if isinstance(space, ResidueSpace):
        n = space.n
        x = state.payload
        if isinstance(expr, Affine):
            v = (expr.a * x + expr.b) % n
        elif isinstance(expr, PowerPlus):
            v = (pow(x, expr.e, n) + expr.c) % n
        elif isinstance(expr, Exp):
            v = pow(expr.base, x, n)
        elif isinstance(expr, Dickson):
            v = proper_divisor_sum(x) % n
        elif isinstance(expr, WSMap):
            v = (floor(float(x) ** (1.0 + expr.epsilon)) + expr.shift) % n
        else:
            raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")
        try:
            return state_at(space, payload_to_index(space, v))
        except ValueError:
            return None

    if isinstance(space, (Mat2, UpperTri2)):
        n = space.n
        x = state.payload
        if isinstance(expr, MatQuad):
            if isinstance(space, UpperTri2) and expr.entries[2] % n != 0:
                raise ValueError("matrix constant must be upper triangular here")
            sq = _mat_mul(x, x, n)
            img = tuple((sq[i] + expr.entries[i]) % n for i in range(4))
        elif isinstance(expr, PowerPlus):
            pw = _mat_pow(x, expr.e, n)
            c = expr.c % n
            img = ((pw[0] + c) % n, pw[1], pw[2], (pw[3] + c) % n)
        else:
            raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")
        return State(space, img)

    if isinstance(space, PolyQuot):
        n, k = space.n, space.k
        c = state.payload
        if isinstance(expr, PolyDeriv):
            img = tuple((c[j + 1] * (j + 1)) % n for j in range(k - 1)) + (0,)
        elif isinstance(expr, PolySquare):
            img = tuple(
                sum(c[i] * c[j - i] for i in range(j + 1)) % n for j in range(k)
            )
        elif isinstance(expr, PolyAddConst):
            img = tuple(
                (c[j] + (expr.coeffs[j] if j < len(expr.coeffs) else 0)) % n
                for j in range(k)
            )
        else:
            raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")
        return State(space, img)

    if isinstance(space, BitVec) and isinstance(expr, CARule):
        return State(space, ca_step(expr.rule, state.payload))

    raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")


# -- components ---------------------------------------------------------------


def image_tables(family: MapFamily) -> list[np.ndarray]:
    """One image table per map of the family, -1 where there is no image."""
    return [image_table(m, family.space) for m in family.maps]


def neighbor_array(g: SimpleGraph, v: int):
    """The sorted neighbours of v, read off the CSR arrays."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]]


def twin_classes(g: SimpleGraph, vertices) -> list[list[int]]:
    """The given vertices grouped by equal neighbour lists, each group
    ascending and the groups in order of their smallest vertex."""
    groups: dict[tuple, list[int]] = {}
    for v in vertices:
        groups.setdefault(tuple(neighbor_array(g, v).tolist()), []).append(int(v))
    return sorted(sorted(group) for group in groups.values())


class UnionFind:
    """Plain union-find with path halving: the second route for component
    counting."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.count = size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count -= 1

    def labels(self) -> list[int]:
        """Component label per element: the root index of its set."""
        return [self.find(x) for x in range(len(self.parent))]


# -- run headers --------------------------------------------------------------

# header keys that reappear as positional CLI arguments, and as bare flags
_POSITIONAL_KEYS = ("claim", "kind")
_FLAG_KEYS = ("labels",)


def config_args(config: RunConfig) -> list[str]:
    """Reconstruct the argument vector that reproduces a run."""
    argv = [config.command]
    for key, value in config.fields:
        if key in _POSITIONAL_KEYS:
            argv.append(value)
        elif key in _FLAG_KEYS:
            argv.append(f"--{key}")
        else:  # one token, so a value starting with '-' is not read as an option
            argv.append(f"--{key}={value}")
    return argv


def config_from_output(text: str) -> RunConfig:
    """Parse the run configuration header back out of a written output file."""
    pairs = []
    for line in text.removeprefix("P1\n").splitlines():
        if not line.startswith(("# ", "// ")):
            break
        key, sep, value = line.split(" ", 1)[1].strip().partition("=")
        if sep:
            pairs.append((key, value))
    table = dict(pairs)
    if "command" not in table:
        raise ValueError("no run configuration header found")
    fields = tuple((k, v) for k, v in pairs if k not in ("command", "ringgraphs"))
    return RunConfig(table["command"], fields)
