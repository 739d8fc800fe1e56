"""Generator maps over finite state spaces: parsing, pretty-printing,
pointwise application, and vectorized image tables.

Application returns the image state, or None when the raw image falls
outside a restricted residue space (no edge is produced in that case).
The grammar, one expression per comma-separated item:

    affine    := [INT] "x" (("+"|"-") INT)?      2x, 3x+1, x, x-1
    power     := "x^" INT (("+"|"-") INT)?       x^2, x^2+1, x^3
    exp       := INT "^x"                        2^x
    named     := "sigma" | "succ" | "deriv" | "square"
               | "addc:" INT ("," INT)*          constant polynomial, low degree first
               | "ca:" INT                       cellular automaton rule 0..255
               | "perm:" INT                     seeded permutation of the index set
               | "ws:" REAL ":" INT              floor(x^(1+eps)) + shift
               | "matquad:" INT,INT,INT,INT      x^2 + A, row-major entries of A
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import floor

import numpy as np

from . import rng
from .numtheory import proper_divisor_sum, proper_divisor_sums_upto
from .spaces import (
    BitVec,
    Mat2,
    PolyQuot,
    ResidueSpace,
    State,
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
    pass


@dataclass(frozen=True)
class Affine(MapExpr):
    a: int
    b: int


@dataclass(frozen=True)
class PowerPlus(MapExpr):
    e: int
    c: int


@dataclass(frozen=True)
class Exp(MapExpr):
    base: int


@dataclass(frozen=True)
class Dickson(MapExpr):
    pass


@dataclass(frozen=True)
class MatQuad(MapExpr):
    entries: tuple[int, int, int, int]


@dataclass(frozen=True)
class PolyDeriv(MapExpr):
    pass


@dataclass(frozen=True)
class PolySquare(MapExpr):
    pass


@dataclass(frozen=True)
class PolyAddConst(MapExpr):
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class CARule(MapExpr):
    rule: int

    def __post_init__(self):
        if not 0 <= self.rule <= 255:
            raise ValueError("rule number must be in 0..255")


@dataclass(frozen=True)
class Perm(MapExpr):
    seed: int


@dataclass(frozen=True)
class WSMap(MapExpr):
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

    def int_(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise MapParseError("expected an integer", self.text, self.pos)
        return int(self.text[start : self.pos])

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
        return s.int_()
    if s.take("-"):
        return -s.int_()
    return 0


def _parse_one(s: _Scanner) -> MapExpr:
    ch = s.peek()
    if ch.isdigit():
        n = s.int_()
        if s.take("^"):
            s.expect("x")
            return Exp(n)
        s.expect("x")
        return Affine(n, _signed_tail(s))
    word = s.word()
    if word == "x":
        if s.take("^"):
            e = s.int_()
            return PowerPlus(e, _signed_tail(s))
        return Affine(1, _signed_tail(s))
    if word == "sigma":
        return Dickson()
    if word == "succ":
        return Affine(1, 1)
    if word == "deriv":
        return PolyDeriv()
    if word == "square":
        return PolySquare()
    if word == "addc":
        s.expect(":")
        coeffs = [s.int_()]
        # greedy, but a comma followed by a non-digit belongs to the list
        while True:
            save = s.pos
            if not s.take(","):
                break
            if not s.peek().isdigit():
                s.pos = save
                break
            coeffs.append(s.int_())
        return PolyAddConst(tuple(coeffs))
    if word == "ca":
        s.expect(":")
        pos = s.pos
        rule = s.int_()
        if not 0 <= rule <= 255:
            raise MapParseError("rule number must be 0..255", s.text, pos)
        return CARule(rule)
    if word == "perm":
        s.expect(":")
        return Perm(s.int_())
    if word == "ws":
        s.expect(":")
        eps = s.real()
        s.expect(":")
        return WSMap(eps, s.int_())
    if word == "matquad":
        s.expect(":")
        vals = [s.int_()]
        for _ in range(3):
            s.expect(",")
            vals.append(s.int_())
        return MatQuad(tuple(vals))
    if word:
        raise MapParseError(f"unknown map name {word!r}", s.text, s.pos - len(word))
    raise MapParseError("expected a map expression", s.text, s.pos)


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
    if isinstance(expr, Dickson):
        return "sigma"
    if isinstance(expr, PolyDeriv):
        return "deriv"
    if isinstance(expr, PolySquare):
        return "square"
    if isinstance(expr, PolyAddConst):
        return "addc:" + ",".join(str(c) for c in expr.coeffs)
    if isinstance(expr, CARule):
        return f"ca:{expr.rule}"
    if isinstance(expr, Perm):
        return f"perm:{expr.seed}"
    if isinstance(expr, WSMap):
        return f"ws:{expr.epsilon!r}:{expr.shift}"
    if isinstance(expr, MatQuad):
        return "matquad:" + ",".join(str(v) for v in expr.entries)
    raise TypeError(f"unknown map expression {expr!r}")


# ---------------------------------------------------------------------------
# applicability and the map family


_RESIDUE_EXPRS = (Affine, PowerPlus, Exp, Dickson, WSMap)
_POLY_EXPRS = (PolyDeriv, PolySquare, PolyAddConst)


def applicable(expr: MapExpr, space: StateSpace) -> bool:
    if isinstance(expr, Perm):
        return True
    if isinstance(space, ResidueSpace):
        return isinstance(expr, _RESIDUE_EXPRS)
    if isinstance(space, Mat2):
        return isinstance(expr, (MatQuad, PowerPlus))
    if isinstance(space, UpperTri2):
        if isinstance(expr, MatQuad):
            return expr.entries[2] % space.n == 0
        return isinstance(expr, PowerPlus)
    if isinstance(space, PolyQuot):
        return isinstance(expr, _POLY_EXPRS)
    if isinstance(space, BitVec):
        return isinstance(expr, CARule) and space.width >= 3
    return False


@dataclass(frozen=True)
class MapFamily:
    """A nonempty ordered list of maps together with the space they act on."""

    maps: tuple[MapExpr, ...]
    space: StateSpace

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a map family needs at least one map")
        for m in self.maps:
            if not applicable(m, self.space):
                raise ValueError(
                    f"map {format_map(m)!r} is not applicable to {self.space.spec()}"
                )

    def provenance(self) -> str:
        return ",".join(format_map(m) for m in self.maps)


def family_from_texts(space: StateSpace, maps_text: str) -> MapFamily:
    return MapFamily(parse_maps(maps_text), space)


# ---------------------------------------------------------------------------
# vectorized application


def powmod_vec(base, exp, mod: int) -> np.ndarray:
    """Vectorized modular power; base and exp may be arrays or scalars."""
    if mod == 1:
        shape = np.broadcast(np.asarray(base), np.asarray(exp)).shape
        return np.zeros(shape, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64) % mod
    exp = np.asarray(exp, dtype=np.int64)
    result = np.ones(np.broadcast(base, exp).shape, dtype=np.int64)
    base = np.broadcast_to(base, result.shape).copy()
    exp = np.broadcast_to(exp, result.shape).copy()
    bits = int(exp.max()).bit_length() if exp.size else 0
    for _ in range(bits):
        odd = (exp & 1) == 1
        result[odd] = result[odd] * base[odd] % mod
        base = base * base % mod
        exp >>= 1
    return result


def _ca_image_indices(rule: int, width: int) -> np.ndarray:
    idx = np.arange(1 << width, dtype=np.int64)
    out = np.zeros_like(idx)
    for i in range(width):
        left = (idx >> (width - 1 - (i - 1) % width)) & 1
        center = (idx >> (width - 1 - i)) & 1
        right = (idx >> (width - 1 - (i + 1) % width)) & 1
        code = 4 * left + 2 * center + right
        bit = (rule >> code) & 1
        out |= bit << (width - 1 - i)
    return out


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
    zero = x[0] * 0
    result = (zero + 1, zero, zero, zero + 1)
    base = x
    while e:
        if e & 1:
            result = _mat_mul(result, base, n)
        base = _mat_mul(base, base, n)
        e >>= 1
    return result


def image_table(expr: MapExpr, space: StateSpace) -> np.ndarray:
    """Image index for every state index; -1 where the image escapes the
    space (restricted residue subspaces only)."""
    size = space.size
    if isinstance(expr, Perm):
        return rng.permutation_vector(size, expr.seed)

    if isinstance(space, ResidueSpace):
        n = space.n
        r = space.residues()
        if isinstance(expr, Affine):
            vals = (expr.a % n * r + expr.b % n) % n
        elif isinstance(expr, PowerPlus):
            vals = (powmod_vec(r, expr.e, n) + expr.c % n) % n
        elif isinstance(expr, Exp):
            vals = powmod_vec(expr.base, r, n)
        elif isinstance(expr, Dickson):
            vals = proper_divisor_sums_upto(n)[r] % n
        elif isinstance(expr, WSMap):
            # Python's float power, as in apply: numpy's vectorised power can
            # differ from it in the last bit, and it raises OverflowError
            # where numpy gives inf.  fmod is exact, so only values below n
            # are cast (casting a float at or above 2^63 to int64 is undefined).
            p = 1.0 + expr.epsilon
            raw = np.floor(np.array([x**p for x in r.astype(np.float64).tolist()]))
            vals = (np.fmod(raw, n).astype(np.int64) + expr.shift % n) % n
        else:
            raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")
        return space.residue_indices(vals)

    if isinstance(space, Mat2):
        n = space.n
        x = space.entry_arrays()
        if isinstance(expr, MatQuad):
            a, b, c, d = _mat_mul(x, x, n)
            ea, eb, ec, ed = (v % n for v in expr.entries)
            return space.pack((a + ea) % n, (b + eb) % n, (c + ec) % n, (d + ed) % n)
        if isinstance(expr, PowerPlus):
            a, b, c, d = _mat_pow(x, expr.e, n)
            cc = expr.c % n
            return space.pack((a + cc) % n, b, c, (d + cc) % n)

    if isinstance(space, UpperTri2):
        n = space.n
        a, b, d = space.entry_arrays()
        x = (a, b, a * 0, d)
        if isinstance(expr, MatQuad):
            ra, rb, _, rd = _mat_mul(x, x, n)
            ea, eb, ec, ed = (v % n for v in expr.entries)
            if ec != 0:
                raise ValueError("matrix constant must be upper triangular here")
            return space.pack((ra + ea) % n, (rb + eb) % n, (rd + ed) % n)
        if isinstance(expr, PowerPlus):
            ra, rb, _, rd = _mat_pow(x, expr.e, n)
            cc = expr.c % n
            return space.pack((ra + cc) % n, rb, (rd + cc) % n)

    if isinstance(space, PolyQuot):
        n, k = space.n, space.k
        coeffs = space.coeff_arrays()
        if isinstance(expr, PolyDeriv):
            out = [(coeffs[j + 1] * (j + 1)) % n for j in range(k - 1)]
            out.append(np.zeros(size, dtype=np.int64))
            return space.pack(out)
        if isinstance(expr, PolySquare):
            out = []
            for j in range(k):
                acc = np.zeros(size, dtype=np.int64)
                for i in range(j + 1):
                    acc += coeffs[i] * coeffs[j - i]
                out.append(acc % n)
            return space.pack(out)
        if isinstance(expr, PolyAddConst):
            const = [expr.coeffs[j] % n if j < len(expr.coeffs) else 0 for j in range(k)]
            return space.pack([(coeffs[j] + const[j]) % n for j in range(k)])

    if isinstance(space, BitVec) and isinstance(expr, CARule):
        if space.width < 3:
            raise ValueError("cellular automata need width >= 3")
        return _ca_image_indices(expr.rule, space.width)

    raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")


def apply(expr: MapExpr, state: State) -> State | None:
    """Apply one map to one state; None when the image escapes the space."""
    space = state.space
    if isinstance(expr, Perm):
        table = rng.permutation_vector(space.size, expr.seed)
        return space.state_at(int(table[space.index_of(state)]))

    if isinstance(space, ResidueSpace):
        if not isinstance(expr, _RESIDUE_EXPRS):
            raise ValueError(f"{format_map(expr)!r} not applicable to {space.spec()}")
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
        else:
            v = (floor(float(x) ** (1.0 + expr.epsilon)) + expr.shift) % n
        idx = int(space.residue_indices(np.array([v], dtype=np.int64))[0])
        return None if idx < 0 else space.state_at(idx)

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


def random_permutation(n: int, seed: int) -> Perm:
    """A seeded uniformly shuffled permutation map of {0..n-1}; the same seed
    gives the same permutation on every platform."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng.permutation_vector(n, seed)  # materialize and cache the table
    return Perm(seed)


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
