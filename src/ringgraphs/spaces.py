"""Enumerable finite state spaces with a fixed bijection onto {0..size-1}.

Residue spaces carry integers, matrix spaces carry row-major entry tuples,
polynomial quotients carry low-degree-first coefficient tuples, and bit
vector spaces carry 0/1 tuples.  All spaces are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator

import numpy as np

from .numtheory import euler_phi

SIZE_CAP = 1 << 25


@dataclass(frozen=True)
class State:
    space: "StateSpace"
    payload: Any


class StateSpace:
    """Base class; subclasses define size and the index bijection."""

    kind: str = ""

    @property
    def size(self) -> int:
        raise NotImplementedError

    def payload_to_index(self, payload) -> int:
        raise NotImplementedError

    def index_to_payload(self, index: int):
        raise NotImplementedError

    def index_of(self, state: State) -> int:
        if state.space != self:
            raise ValueError("state belongs to a different space")
        return self.payload_to_index(state.payload)

    def state_at(self, index: int) -> State:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for {self.spec()}")
        return State(self, self.index_to_payload(index))

    def enumerate(self) -> Iterator[State]:
        for i in range(self.size):
            yield State(self, self.index_to_payload(i))

    def payloads(self) -> list:
        """Every payload in index order."""
        return [self.index_to_payload(i) for i in range(self.size)]

    def spec(self) -> str:
        raise NotImplementedError

    def _check_cap(self) -> None:
        if self.size > SIZE_CAP:
            raise ValueError(
                f"space {self.spec()} has {self.size} states, above the cap {SIZE_CAP}"
            )


class ResidueSpace(StateSpace):
    """Subsets of Z_n; payloads are integers in [0, n)."""

    n: int

    def residues(self) -> np.ndarray:
        """Member residues in index order (int64)."""
        raise NotImplementedError

    def residue_indices(self, values: np.ndarray) -> np.ndarray:
        """Indices for an array of residues already reduced mod n; -1 marks
        values outside the space (escape)."""
        raise NotImplementedError

    def payload_to_index(self, payload) -> int:
        idx = int(self.residue_indices(np.array([payload % self.n], dtype=np.int64))[0])
        if idx < 0 or payload != payload % self.n:
            raise ValueError(f"residue {payload} not in {self.spec()}")
        return idx

    def index_to_payload(self, index: int) -> int:
        return int(self.residues()[index])

    def payloads(self) -> list[int]:
        return self.residues().tolist()  # one pass, not one residues() per index


@dataclass(frozen=True)
class Zn(ResidueSpace):
    n: int
    kind = "zn"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n

    def residues(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def residue_indices(self, values: np.ndarray) -> np.ndarray:
        return values

    def spec(self) -> str:
        return f"zn:{self.n}"


@dataclass(frozen=True)
class ZnNonzero(ResidueSpace):
    n: int
    kind = "znz"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("nonzero residues need n >= 2")
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n - 1

    def residues(self) -> np.ndarray:
        return np.arange(1, self.n, dtype=np.int64)

    def residue_indices(self, values: np.ndarray) -> np.ndarray:
        return values - 1

    def spec(self) -> str:
        return f"znz:{self.n}"


@dataclass(frozen=True)
class ZnUnits(ResidueSpace):
    n: int
    kind = "units"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if euler_phi(self.n) > SIZE_CAP:
            raise ValueError("space above the cap")

    @property
    def size(self) -> int:
        return len(self.residues())

    @cached_property
    def _units(self) -> np.ndarray:
        r = np.arange(self.n, dtype=np.int64)
        return r[np.gcd(r, self.n) == 1]

    @cached_property
    def _lookup(self) -> np.ndarray:
        table = np.full(self.n, -1, dtype=np.int64)
        table[self._units] = np.arange(len(self._units), dtype=np.int64)
        return table

    def residues(self) -> np.ndarray:
        return self._units

    def residue_indices(self, values: np.ndarray) -> np.ndarray:
        return self._lookup[values]

    def spec(self) -> str:
        return f"units:{self.n}"


@dataclass(frozen=True)
class ZnFromTwo(ResidueSpace):
    n: int
    kind = "from2"

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("the {2..n-1} space needs n >= 3")
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n - 2

    def residues(self) -> np.ndarray:
        return np.arange(2, self.n, dtype=np.int64)

    def residue_indices(self, values: np.ndarray) -> np.ndarray:
        return np.where(values >= 2, values - 2, -1)

    def spec(self) -> str:
        return f"from2:{self.n}"


@dataclass(frozen=True)
class Mat2(StateSpace):
    """Full 2x2 matrix ring over Z_n; payload (a, b, c, d) row-major."""

    n: int
    kind = "mat2"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n**4

    def payload_to_index(self, payload) -> int:
        a, b, c, d = payload
        if not all(0 <= v < self.n for v in (a, b, c, d)):
            raise ValueError(f"entries {payload} out of range mod {self.n}")
        return ((a * self.n + b) * self.n + c) * self.n + d

    def index_to_payload(self, index: int):
        n = self.n
        d = index % n
        c = (index // n) % n
        b = (index // n**2) % n
        a = index // n**3
        return (a, b, c, d)

    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        i = np.arange(self.size, dtype=np.int64)
        n = self.n
        return i // n**3, (i // n**2) % n, (i // n) % n, i % n

    def pack(self, a, b, c, d) -> np.ndarray:
        return ((a * self.n + b) * self.n + c) * self.n + d

    def spec(self) -> str:
        return f"mat2:{self.n}"


@dataclass(frozen=True)
class UpperTri2(StateSpace):
    """Upper triangular 2x2 matrices over Z_n; payload (a, b, 0, d)."""

    n: int
    kind = "ut2"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n**3

    def payload_to_index(self, payload) -> int:
        a, b, c, d = payload
        if c != 0:
            raise ValueError("lower-left entry must be 0 in the upper-triangular ring")
        if not all(0 <= v < self.n for v in (a, b, d)):
            raise ValueError(f"entries {payload} out of range mod {self.n}")
        return (a * self.n + b) * self.n + d

    def index_to_payload(self, index: int):
        n = self.n
        d = index % n
        b = (index // n) % n
        a = index // n**2
        return (a, b, 0, d)

    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        i = np.arange(self.size, dtype=np.int64)
        n = self.n
        return i // n**2, (i // n) % n, i % n

    def pack(self, a, b, d) -> np.ndarray:
        return (a * self.n + b) * self.n + d

    def spec(self) -> str:
        return f"ut2:{self.n}"


@dataclass(frozen=True)
class PolyQuot(StateSpace):
    """Z_n[x] / (x^k); payload is a k-tuple of coefficients, low degree first."""

    n: int
    k: int
    kind = "poly"

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n**self.k

    def payload_to_index(self, payload) -> int:
        if len(payload) != self.k:
            raise ValueError(f"expected {self.k} coefficients")
        if not all(0 <= c < self.n for c in payload):
            raise ValueError(f"coefficients {payload} out of range mod {self.n}")
        out = 0
        for c in reversed(payload):
            out = out * self.n + c
        return out

    def index_to_payload(self, index: int):
        coeffs = []
        for _ in range(self.k):
            coeffs.append(index % self.n)
            index //= self.n
        return tuple(coeffs)

    def coeff_arrays(self) -> list[np.ndarray]:
        i = np.arange(self.size, dtype=np.int64)
        return [(i // self.n**j) % self.n for j in range(self.k)]

    def pack(self, coeffs: list[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.int64)
        for j, c in enumerate(coeffs):
            out += c * self.n**j
        return out

    def spec(self) -> str:
        return f"poly:{self.n}:{self.k}"


@dataclass(frozen=True)
class BitVec(StateSpace):
    """Bit vectors of a fixed width; payload is a 0/1 tuple, leftmost bit
    most significant in the index."""

    width: int
    kind = "bits"

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        self._check_cap()

    @property
    def size(self) -> int:
        return 1 << self.width

    def payload_to_index(self, payload) -> int:
        if len(payload) != self.width or not all(b in (0, 1) for b in payload):
            raise ValueError(f"expected a {self.width}-bit 0/1 tuple")
        out = 0
        for b in payload:
            out = (out << 1) | b
        return out

    def index_to_payload(self, index: int):
        return tuple((index >> (self.width - 1 - i)) & 1 for i in range(self.width))

    def spec(self) -> str:
        return f"bits:{self.width}"


def parse_space(text: str) -> StateSpace:
    """Parse a textual space specifier: zn:N, znz:N, units:N, from2:N,
    mat2:N, ut2:N, poly:N:K, bits:W."""
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError(f"bad space specifier {text!r}: {exc}") from None
    table = {
        "zn": (Zn, 1),
        "znz": (ZnNonzero, 1),
        "units": (ZnUnits, 1),
        "from2": (ZnFromTwo, 1),
        "mat2": (Mat2, 1),
        "ut2": (UpperTri2, 1),
        "poly": (PolyQuot, 2),
        "bits": (BitVec, 1),
    }
    if kind not in table:
        raise ValueError(f"unknown space kind {kind!r} in {text!r}")
    cls, arity = table[kind]
    if len(args) != arity:
        raise ValueError(f"space kind {kind!r} takes {arity} integer argument(s)")
    return cls(*args)
