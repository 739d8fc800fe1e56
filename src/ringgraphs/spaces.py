"""Finite state spaces with a fixed bijection onto {0..size-1}.

Every space indexes its states through one layout: `digits` turns an index
into a tuple of columns and `pack` turns columns back into an index.  Each
kind is a frozen dataclass that states its `kind`, the integers of its
specifier as fields, and what sets it apart from its family:

- residue spaces (subsets of Z_n) have one column, the member residue.  By
  default the members are first, first+1, ..., n-1, so a kind declares
  `first` and `too_small`, the error for n <= first; the units override
  the layout with their member list and a rank lookup.
- digit spaces have one column per place value, and a kind declares `free`
  (how many digits vary) and `places`: matrix spaces carry row-major entry
  tuples, polynomial quotients low-degree-first coefficient tuples, and
  bit vectors 0/1 tuples (with `radix` 2 in place of n).

Each family checks the fields and the size cap once, in `__post_init__`.
All spaces are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .numtheory import euler_phi, factorize

SIZE_CAP = 1 << 25


class StateSpace:
    """Base class: a kind, and size, digits and pack.

    `digits` and `pack` take an int or an int64 array of indices and
    columns alike, so one layout serves single states and whole tables."""

    kind: str = ""
    too_small = "n must be >= 1"  # the error for a field below its least value

    @property
    def size(self) -> int:
        raise NotImplementedError

    def digits(self, index) -> tuple:
        """Column tuple of an index (or of an index array)."""
        raise NotImplementedError

    def pack(self, digits):
        """Index (or index array) of a column tuple."""
        raise NotImplementedError

    def spec(self) -> str:
        """The specifier parse_space reads back: the kind, then each field."""
        return ":".join([self.kind] + [str(getattr(self, f.name)) for f in fields(self)])

    def _check_cap(self, bits: int = 0) -> None:
        """Raise if the space is above the cap.  `bits` is a lower bound on
        log2 of the size from the fields alone: past 10,000 bits the size is
        not built (a far-off digit space would take seconds), and a count
        past 10,000 bits, which Python would not print, is given as a power
        of two at or below it."""
        if bits <= 10_000:
            if self.size <= SIZE_CAP:
                return
            bits = self.size.bit_length() - 1
        count = self.size if bits < 10_000 else f"at least 2^{bits}"
        raise ValueError(f"space {self.spec()} has {count} states, above the cap {SIZE_CAP}")


@dataclass(frozen=True)
class ResidueSpace(StateSpace):
    """Subsets of Z_n; payloads are integers in [0, n).  `pack` takes
    residues already reduced mod n and gives -1 for a residue outside the
    space (an escape).

    The space needs n > first, so first + 1 is the smallest modulus of its
    kind.  The default layout is the run first, first+1, ..., n-1."""

    n: int
    first = 0

    def __post_init__(self):
        if self.n <= self.first:
            raise ValueError(self.too_small)
        self._check_cap()

    @property
    def size(self) -> int:
        return self.n - self.first

    def digits(self, index) -> tuple:
        return (index + self.first,) if self.first else (index,)

    def pack(self, digits):
        (residue,) = digits
        return np.maximum(residue - self.first, -1) if self.first else residue


class Zn(ResidueSpace):
    kind = "zn"


class ZnNonzero(ResidueSpace):
    kind, first, too_small = "znz", 1, "nonzero residues need n >= 2"


class ZnFromTwo(ResidueSpace):
    kind, first, too_small = "from2", 2, "the {2..n-1} space needs n >= 3"


class ZnUnits(ResidueSpace):
    kind = "units"

    def __post_init__(self):
        # phi(n) >= sqrt(n/2), so past n = 2^51 the space is over the cap
        # whatever the factors of n, which rho might take minutes to find
        if self.n > 2 * SIZE_CAP**2:
            bits = (self.n.bit_length() - 2) // 2  # 2^bits <= sqrt(n/2)
            count = f"at least 2^{bits}"
            raise ValueError(f"space {self.spec()} has {count} states, above the cap {SIZE_CAP}")
        super().__post_init__()

    @property
    def size(self) -> int:
        return euler_phi(self.n)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The member residues in order, and a rank structure over the
        units (Jacobson 1989): the unit mask packed into uint64 words, bit
        r % 64 of word r // 64 for residue r, and the count of units before
        each word, n/8 + n/16 bytes where an index per residue took 4n.
        int32 holds the residues and counts: n is below 2^31 when the space
        is under the cap."""
        unit = np.zeros(-self.n % 64 + self.n, dtype=bool)
        unit[: self.n] = True
        for p in factorize(self.n).primes():
            unit[::p] = False
        # little-endian bit and byte order whatever the platform's
        words = np.packbits(unit, bitorder="little").view("<u8").astype(np.uint64)
        before = np.zeros(len(words), dtype=np.int32)
        np.cumsum(np.bitwise_count(words[:-1]), dtype=np.int32, out=before[1:])
        # the members a block of words at a time: flatnonzero gives int64
        members = np.empty(self.size, dtype=np.int32)
        block = 1 << 14
        for w in range(0, len(words), block):
            found = np.flatnonzero(unit[w * 64 : (w + block) * 64]) + w * 64
            members[before[w] : before[w] + len(found)] = found
        return members, words, before

    def digits(self, index) -> tuple:
        return (self._layout[0][index].astype(np.int64),)

    def pack(self, digits):
        (residue,) = digits
        _, words, before = self._layout
        residue = np.asarray(residue)
        word = residue >> 6
        # the word's bits up to r's, shifted to the top: the top bit is r's
        low = words[word] << (63 - (residue & 63)).astype(np.uint64)
        rank = before[word] + np.bitwise_count(low) - 1
        return np.where(low >> np.uint64(63) == 1, rank, -1)


class DigitSpace(StateSpace):
    """States are tuples of digits base `radix` (n unless a kind says
    otherwise); the index of a state is the sum of digit * place over
    `places`.  A place of 0 pins its digit at 0, and `free` counts the
    places that are not 0."""

    free: int
    places: tuple[int, ...]

    def __post_init__(self):
        if any(getattr(self, f.name) < 1 for f in fields(self)):
            raise ValueError(self.too_small)
        # from radix and free, before any place is built; 2^bits <= the
        # size, with equality for radix 2
        self._check_cap(self.free * (self.radix.bit_length() - 1))

    @property
    def radix(self) -> int:
        return self.n

    @property
    def size(self) -> int:
        return self.radix**self.free

    def digits(self, index) -> tuple:
        return tuple(index // p % self.radix if p else index * 0 for p in self.places)

    def pack(self, digits):
        return sum(d * p for d, p in zip(digits, self.places) if p)


@dataclass(frozen=True)
class Mat2(DigitSpace):
    """Full 2x2 matrix ring over Z_n; payload (a, b, c, d) row-major."""

    n: int
    kind, free = "mat2", 4

    @property
    def places(self) -> tuple[int, ...]:
        return (self.n**3, self.n**2, self.n, 1)


@dataclass(frozen=True)
class UpperTri2(DigitSpace):
    """Upper triangular 2x2 matrices over Z_n; payload (a, b, 0, d)."""

    n: int
    kind, free = "ut2", 3

    @property
    def places(self) -> tuple[int, ...]:
        return (self.n**2, self.n, 0, 1)


@dataclass(frozen=True)
class PolyQuot(DigitSpace):
    """Z_n[x] / (x^k); payload is a k-tuple of coefficients, low degree first."""

    n: int
    k: int
    kind, too_small = "poly", "need n >= 1 and k >= 1"

    @property
    def free(self) -> int:
        return self.k

    @property
    def places(self) -> tuple[int, ...]:
        return tuple(self.n**j for j in range(self.k))


@dataclass(frozen=True)
class BitVec(DigitSpace):
    """Bit vectors of a fixed width; payload is a 0/1 tuple, leftmost bit
    most significant in the index."""

    width: int
    kind, radix, too_small = "bits", 2, "width must be >= 1"

    @property
    def free(self) -> int:
        return self.width

    @property
    def places(self) -> tuple[int, ...]:
        return tuple(1 << (self.width - 1 - i) for i in range(self.width))


SPACE_KINDS = {
    cls.kind: cls
    for cls in (Zn, ZnNonzero, ZnUnits, ZnFromTwo, Mat2, UpperTri2, PolyQuot, BitVec)
}


def parse_space(text: str) -> StateSpace:
    """Parse a textual space specifier, the kind then one integer per field
    of its class: zn:N, znz:N, units:N, from2:N, mat2:N, ut2:N, poly:N:K,
    bits:W."""
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError(f"bad space specifier {text!r}: {exc}") from None
    if kind not in SPACE_KINDS:
        raise ValueError(f"unknown space kind {kind!r} in {text!r}")
    cls = SPACE_KINDS[kind]
    arity = len(fields(cls))
    if len(args) != arity:
        raise ValueError(f"space kind {kind!r} takes {arity} integer argument(s)")
    return cls(*args)
