"""Finite state spaces with a fixed bijection onto {0..size-1}.

Residue spaces carry integers.  Digit spaces share one place-value layout:
matrix spaces carry row-major entry tuples, polynomial quotients carry
low-degree-first coefficient tuples, and bit vector spaces carry 0/1
tuples.  All spaces are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numtheory import euler_phi

SIZE_CAP = 1 << 25


class StateSpace:
    """Base class; subclasses define size, payloads and spec."""

    kind: str = ""

    @property
    def size(self) -> int:
        raise NotImplementedError

    def payloads(self) -> list:
        """Every payload in index order."""
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def _check_cap(self, size: int | None = None) -> None:
        size = self.size if size is None else size
        if size > SIZE_CAP:
            raise ValueError(
                f"space {self.spec()} has {size} states, above the cap {SIZE_CAP}"
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


class DigitSpace(StateSpace):
    """States are tuples of digits base `radix`; the index of a state is the
    sum of digit * place over `places`.  A place of 0 pins its digit at 0.

    `digits` and `pack` take an int or an int64 array of indices and digit
    columns alike, so one layout serves single states and whole tables."""

    @property
    def radix(self) -> int:
        raise NotImplementedError

    @property
    def places(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def size(self) -> int:
        return self.radix ** sum(1 for p in self.places if p)

    def digits(self, index):
        """Digit tuple (or tuple of digit columns) of an index (or array)."""
        return tuple(index // p % self.radix if p else index * 0 for p in self.places)

    def pack(self, digits):
        """Index (or index array) of a digit tuple (or of digit columns)."""
        return sum(d * p for d, p in zip(digits, self.places) if p)

    def payloads(self) -> list[tuple[int, ...]]:
        columns = self.digits(np.arange(self.size, dtype=np.int64))
        return list(zip(*(c.tolist() for c in columns)))


@dataclass(frozen=True)
class Mat2(DigitSpace):
    """Full 2x2 matrix ring over Z_n; payload (a, b, c, d) row-major."""

    n: int
    kind = "mat2"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self._check_cap()

    @property
    def radix(self) -> int:
        return self.n

    @property
    def places(self) -> tuple[int, ...]:
        return (self.n**3, self.n**2, self.n, 1)

    def spec(self) -> str:
        return f"mat2:{self.n}"


@dataclass(frozen=True)
class UpperTri2(DigitSpace):
    """Upper triangular 2x2 matrices over Z_n; payload (a, b, 0, d)."""

    n: int
    kind = "ut2"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self._check_cap()

    @property
    def radix(self) -> int:
        return self.n

    @property
    def places(self) -> tuple[int, ...]:
        return (self.n**2, self.n, 0, 1)

    def spec(self) -> str:
        return f"ut2:{self.n}"


@dataclass(frozen=True)
class PolyQuot(DigitSpace):
    """Z_n[x] / (x^k); payload is a k-tuple of coefficients, low degree first."""

    n: int
    k: int
    kind = "poly"

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self._check_cap(self.n**self.k)  # before any of the k places is built

    @property
    def radix(self) -> int:
        return self.n

    @property
    def places(self) -> tuple[int, ...]:
        return tuple(self.n**j for j in range(self.k))

    def spec(self) -> str:
        return f"poly:{self.n}:{self.k}"


@dataclass(frozen=True)
class BitVec(DigitSpace):
    """Bit vectors of a fixed width; payload is a 0/1 tuple, leftmost bit
    most significant in the index."""

    width: int
    kind = "bits"

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        self._check_cap(1 << self.width)  # before any of the places is built

    @property
    def radix(self) -> int:
        return 2

    @property
    def places(self) -> tuple[int, ...]:
        return tuple(1 << (self.width - 1 - i) for i in range(self.width))

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
