"""Generator maps over finite state spaces: parsing, pretty-printing,
and vectorized image tables.

A table gives the image index of every state, or -1 when the raw image
falls outside a restricted residue space (no edge is produced in that
case).  The grammar, one expression per comma-separated item:

    affine    := [INT] "x" (("+"|"-") NAT)?      2x, -3x+1, x, x-1
    power     := "x^" NAT (("+"|"-") NAT)?       x^2, x^2+1, x^3
    exp       := INT "^x"                        2^x, -3^x (base -3)
    named     := WORD (":" FIELD)*, the fields of the kind in order, a tuple
                 as a comma list (a comma then an INT continues it):
                 sigma | succ | deriv | square     (succ is x+1)
                 addc:C0,C1,...      constant polynomial, low degree first
                 ca:RULE             cellular automaton rule 0..255
                 perm:SEED           seeded permutation of the index set
                 ws:EPS:SHIFT        floor(x^(1+eps)) + shift
                 matquad:A,B,C,D     x^2 + A, row-major entries of A

NAT is a run of digits and INT a NAT with an optional leading "-"; every
integer field reads an INT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .numtheory import proper_divisor_sums
from .spaces import (
    BitVec,
    Mat2,
    PolyQuot,
    ResidueSpace,
    StateSpace,
    UpperTri2,
    Zn,
    ZnNonzero,
)


class MapParseError(ValueError):
    """Syntax or name error in a map expression, with a cursor position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


@dataclass(frozen=True)
class MapExpr:
    word = ""  # a named kind's word: its text is the word, then each field


@dataclass(frozen=True)
class Affine(MapExpr):
    a: int
    b: int


@dataclass(frozen=True)
class PowerPlus(MapExpr):
    e: int
    c: int

    def __post_init__(self):
        if self.e < 0:
            raise ValueError("exponent must be >= 0")


@dataclass(frozen=True)
class Exp(MapExpr):
    base: int


@dataclass(frozen=True)
class Dickson(MapExpr):
    word = "sigma"


@dataclass(frozen=True)
class MatQuad(MapExpr):
    word = "matquad"
    entries: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.entries) != 4:
            raise ValueError("a matrix constant has 4 entries")


@dataclass(frozen=True)
class PolyDeriv(MapExpr):
    word = "deriv"


@dataclass(frozen=True)
class PolySquare(MapExpr):
    word = "square"


@dataclass(frozen=True)
class PolyAddConst(MapExpr):
    word = "addc"
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class CARule(MapExpr):
    word = "ca"
    rule: int

    def __post_init__(self):
        if not 0 <= self.rule <= 255:
            raise ValueError("rule number must be in 0..255")


@dataclass(frozen=True)
class Perm(MapExpr):
    word = "perm"
    seed: int


@dataclass(frozen=True)
class WSMap(MapExpr):
    word = "ws"
    epsilon: float
    shift: int

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


# ---------------------------------------------------------------------------
# parsing / printing


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise MapParseError(f"expected {ch!r}", self.text, self.pos)

    def nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise MapParseError("expected an integer", self.text, self.pos)
        return int(self.text[start : self.pos])

    def int_(self) -> int:
        return -self.nat() if self.take("-") else self.nat()

    def at_int(self) -> bool:
        """True if an integer, maybe negative, comes next."""
        ch = self.peek()
        return ch.isdigit() or ch == "-"

    _REAL = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

    def real(self) -> float:
        self._skip_ws()
        m = self._REAL.match(self.text, self.pos)
        if m is None:
            raise MapParseError("expected a number", self.text, self.pos)
        self.pos = m.end()
        return float(m.group())

    def word(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]

    def done(self):
        self._skip_ws()
        if self.pos < len(self.text):
            raise MapParseError("trailing input", self.text, self.pos)


def _signed_tail(s: _Scanner) -> int:
    if s.take("+"):
        return s.nat()
    if s.take("-"):
        return -s.nat()
    return 0


_NAMED = {
    cls.word: cls
    for cls in (Dickson, PolyDeriv, PolySquare, PolyAddConst, CARule, Perm, WSMap, MatQuad)
}


def _field(s: _Scanner, annotation: str):
    """One field of a named kind, read by its annotation."""
    if annotation == "float":
        return s.real()
    if annotation == "int":
        return s.int_()
    values = [s.int_()]
    # a tuple is greedy, but a comma followed by no integer starts the next item
    while True:
        save = s.pos
        if not (s.take(",") and s.at_int()):
            s.pos = save
            return tuple(values)
        values.append(s.int_())


def _parse_one(s: _Scanner) -> MapExpr:
    if s.at_int():
        n = s.int_()
        if s.take("^"):
            s.expect("x")
            return Exp(n)
        s.expect("x")
        return Affine(n, _signed_tail(s))
    word = s.word()
    if word == "x" and s.take("^"):
        cls, starts, values = PowerPlus, [s.pos], [s.int_(), _signed_tail(s)]
    elif word == "x":
        return Affine(1, _signed_tail(s))
    elif word == "succ":
        return Affine(1, 1)
    elif word in _NAMED:
        cls, starts, values = _NAMED[word], [], []
        for f in fields(cls):
            s.expect(":")
            starts.append(s.pos)
            values.append(_field(s, f.type))
    elif word:
        raise MapParseError(f"unknown map name {word!r}", s.text, s.pos - len(word))
    else:
        raise MapParseError("expected a map expression", s.text, s.pos)
    try:
        return cls(*values)
    except ValueError as exc:
        # each kind checks only its first field
        raise MapParseError(str(exc), s.text, starts[0]) from None


def parse_map(text: str) -> MapExpr:
    """Parse one map expression; raises MapParseError with a position."""
    s = _Scanner(text)
    expr = _parse_one(s)
    s.done()
    return expr


def parse_maps(text: str) -> tuple[MapExpr, ...]:
    """Parse a comma-separated list of map expressions."""
    s = _Scanner(text)
    items = [_parse_one(s)]
    while s.take(","):
        items.append(_parse_one(s))
    s.done()
    return tuple(items)


def format_map(expr: MapExpr) -> str:
    """Canonical text form; parse_map(format_map(e)) == e."""
    if isinstance(expr, Affine):
        head = "x" if expr.a == 1 else f"{expr.a}x"
        if expr.b == 0:
            return head
        return f"{head}+{expr.b}" if expr.b > 0 else f"{head}-{-expr.b}"
    if isinstance(expr, PowerPlus):
        head = f"x^{expr.e}"
        if expr.c == 0:
            return head
        return f"{head}+{expr.c}" if expr.c > 0 else f"{head}-{-expr.c}"
    if isinstance(expr, Exp):
        return f"{expr.base}^x"
    values = (getattr(expr, f.name) for f in fields(expr))
    texts = [",".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in values]
    return ":".join([expr.word, *texts])


# ---------------------------------------------------------------------------
# applicability and the map family

# the space families each map kind acts on
_ACTS_ON = {
    **dict.fromkeys((Affine, Exp, Dickson, WSMap), (ResidueSpace,)),
    **dict.fromkeys((PolyDeriv, PolySquare, PolyAddConst), (PolyQuot,)),
    PowerPlus: (ResidueSpace, Mat2, UpperTri2),
    MatQuad: (Mat2, UpperTri2),
    CARule: (BitVec,),
    Perm: (StateSpace,),
}


def _check_applicable(expr: MapExpr, space: StateSpace) -> None:
    """Raise ValueError unless expr acts on space."""
    if not isinstance(space, _ACTS_ON[type(expr)]):
        raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")
    if isinstance(expr, MatQuad) and isinstance(space, UpperTri2) and expr.entries[2] % space.n:
        raise ValueError("matrix constant must be upper triangular here")
    if isinstance(expr, CARule) and space.width < 3:
        raise ValueError("cellular automata need width >= 3")


@dataclass(frozen=True)
class MapFamily:
    """A nonempty ordered list of maps together with the space they act on."""

    maps: tuple[MapExpr, ...]
    space: StateSpace

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a map family needs at least one map")
        for m in self.maps:
            _check_applicable(m, self.space)

    def provenance(self) -> str:
        return ",".join(format_map(m) for m in self.maps)


def family_from_texts(space: StateSpace, maps_text: str) -> MapFamily:
    return MapFamily(parse_maps(maps_text), space)


# ---------------------------------------------------------------------------
# vectorized application

# states per chunk of columns in image_table: small enough that a chunk's
# int64 temporaries do not dwarf the table, and no smaller, since sigma
# makes about sqrt(stop) numpy calls per chunk whatever its length
_TABLE_CHUNK = 1 << 18


def _power(x, e: int, one, mul):
    """x^e by square-and-multiply over the bits of the Python int e."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _exp(base: int, x: np.ndarray, n: int) -> np.ndarray:
    """base^x mod n for a nonempty array x >= 0, over the bits of x; the
    squares of the base are Python ints, so the base may pass 2^63."""
    result = np.full(x.shape, 1 % n, dtype=np.int64)
    square = base % n
    for bit in range(int(x.max()).bit_length()):
        odd = (x >> bit) & 1 == 1
        result[odd] = result[odd] * square % n
        square = square * square % n
    return result


def _mat_mul(x, y, n):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 * a2 + b1 * c2) % n,
        (a1 * b2 + b1 * d2) % n,
        (c1 * a2 + d1 * c2) % n,
        (c1 * b2 + d1 * d2) % n,
    )


def image_table(expr: MapExpr, space: StateSpace) -> np.ndarray:
    """Image index (int32) of every state index; -1 where the image escapes the
    space (restricted residue subspaces only).  Tables are built in chunks
    of _TABLE_CHUNK states, so the columns stay bounded up to the cap.
    A map that does not act on the space is a ValueError."""
    _check_applicable(expr, space)
    size = space.size
    if isinstance(expr, Perm):
        return rng.shuffled_range(size, expr.seed)
    out = np.empty(size, dtype=np.int32)
    for start in range(0, size, _TABLE_CHUNK):
        stop = min(start + _TABLE_CHUNK, size)
        x = space.digits(np.arange(start, stop, dtype=np.int64))
        out[start:stop] = space.pack(_images(expr, space, x))
    return out


def _images(expr: MapExpr, space: StateSpace, x: tuple) -> tuple:
    """Image columns of one chunk's columns x, for a map that acts on the
    space: in each space family the last formula is the one kind left's."""
    if isinstance(space, ResidueSpace):
        n = space.n
        (r,) = x
        if isinstance(expr, Affine):
            return ((expr.a % n * r + expr.b % n) % n,)
        if isinstance(expr, PowerPlus):
            power = _power(r, expr.e, 1 % n, lambda u, v: u * v % n)
            return ((power + expr.c % n) % n,)
        if isinstance(expr, Exp):
            return (_exp(expr.base, r, n),)
        if isinstance(expr, Dickson):
            lo = int(r[0])
            return (proper_divisor_sums(lo, int(r[-1]) + 1)[r - lo] % n,)
        # WSMap: Python's float power, as in the pointwise oracle: numpy's
        # vectorised power can differ from it in the last bit, and it raises
        # OverflowError where numpy gives inf.  fmod is exact, so only values
        # below n are cast (casting a float at or above 2^63 to int64 is
        # undefined).
        p = 1.0 + expr.epsilon
        try:
            raw = np.floor(np.array([v**p for v in r.astype(np.float64).tolist()]))
        except OverflowError:
            raise OverflowError(f"{format_map(expr)!r} overflows a float") from None
        return ((np.fmod(raw, n).astype(np.int64) + expr.shift % n) % n,)

    n = space.radix
    if isinstance(space, (Mat2, UpperTri2)):
        if isinstance(expr, MatQuad):
            e = [v % n for v in expr.entries]
            return tuple((v + c) % n for v, c in zip(_mat_mul(x, x, n), e))
        # PowerPlus
        zero = x[0] * 0
        one = (zero + 1, zero, zero, zero + 1)
        a, b, c, d = _power(x, expr.e, one, lambda u, v: _mat_mul(u, v, n))
        cc = expr.c % n
        return ((a + cc) % n, b, c, (d + cc) % n)

    if isinstance(space, PolyQuot):
        k = len(x)
        if isinstance(expr, PolyDeriv):
            return tuple(x[j + 1] * (j + 1) % n for j in range(k - 1)) + (x[0] * 0,)
        if isinstance(expr, PolySquare):
            # x_i * x_(j-i) and x_(j-i) * x_i are one product, taken twice
            out = []
            for j in range(k):
                twice = sum(x[i] * x[j - i] for i in range((j + 1) // 2))
                middle = x[j // 2] * x[j // 2] if j % 2 == 0 else 0
                out.append((2 * twice + middle) % n)
            return tuple(out)
        # PolyAddConst
        const = expr.coeffs + (0,) * k
        return tuple((x[j] + const[j] % n) % n for j in range(k))

    # a CARule on a BitVec
    w = len(x)
    return tuple(
        expr.rule >> (4 * x[i - 1] + 2 * x[i] + x[(i + 1) % w]) & 1 for i in range(w)
    )


# ---------------------------------------------------------------------------
# named presets


def preset(name: str, n: int, k: int = 6) -> MapFamily:
    """Named map families: collatz, fermat, pierpont, dickson, dickson+,
    polyring."""
    if name == "collatz":
        return MapFamily((Affine(2, 0), Affine(3, 1)), Zn(n))
    if name == "fermat":
        return MapFamily((PowerPlus(2, 0),), ZnNonzero(n))
    if name == "pierpont":
        return MapFamily((PowerPlus(2, 0), PowerPlus(3, 0)), ZnNonzero(n))
    if name == "dickson":
        return MapFamily((Dickson(),), Zn(n))
    if name == "dickson+":
        return MapFamily((Dickson(), Affine(1, 1)), Zn(n))
    if name == "polyring":
        const = tuple(1 if 0 <= j <= 4 else 0 for j in range(k))
        return MapFamily(
            (PolyDeriv(), PolySquare(), PolyAddConst(const)), PolyQuot(n, k)
        )
    raise ValueError(f"unknown preset {name!r}")
