"""Executable checks comparing graph-side computation against the
number-theoretic prediction for each connectivity/triangle claim.

The graph side of every connectivity claim is survey.connectivity_locus,
the scan that `ringgraphs scan locus` prints; the triangle claim reads
metrics.edge_triangle_counts, the sweep of `ringgraphs scan euler-seq`,
and the matrix claim builds its one graph with graphs.build_graph.  The
prediction side uses only the integer predicates, so the two routes share
no code.  CLAIMS declares each claim once: its checker and the parameters
it takes, with their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import build_graph
from .maps import Affine, MapFamily, MatQuad, PowerPlus, preset
from .metrics import components, edge_triangle_counts
from .numtheory import (
    factorize,
    is_fermat_prime,
    is_one_plus_smooth_prime,
    is_prime,
    is_primitive_root,
    is_smooth,
    smooth_set,
    double_smooth_set,
)
from .spaces import SPACE_KINDS, Mat2
from .survey import connectivity_locus

# primes up to 103 with / without 2 as a primitive root (so: connected /
# disconnected doubling graphs on the nonzero residues)
ARTIN_CONNECTED_PRIMES = (3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67, 83, 101)
ARTIN_DISCONNECTED_PRIMES = (7, 17, 23, 31, 41, 43, 47, 71, 73, 79, 89, 97, 103)

# the primes of the form 2^t 3^s + 1 up to 577
PIERPONT_LIST_577 = (
    2, 3, 5, 7, 13, 17, 19, 37, 73, 97, 109, 163, 193, 257, 433, 487, 577,
)

# the vertex sets pierpont reads: nonzero residues, or {2..n-1}
PIERPONT_SPACE_KINDS = ("znz", "from2")

# connectivity loci for one affine map ax+b: (a, b) -> (prime set, doubled?)
AFFINE_TABLE = {
    (2, 0): ({2}, False),
    (2, 1): ({2}, False),
    (3, 0): ({3}, False),
    (3, 1): ({3}, True),
    (3, 2): ({3}, False),
    (4, 0): ({2}, False),
    (4, 1): ({2, 3}, False),
    (4, 2): ({2, 3}, False),
    (4, 3): ({2}, False),
    (5, 0): ({5}, False),
    (5, 1): ({2, 5}, False),
    (5, 2): ({5}, False),
    (5, 3): ({2, 5}, False),
    (5, 4): ({5}, False),
    (6, 0): ({2, 3}, False),
    (6, 1): ({2, 3, 5}, False),
    (6, 2): ({2, 3, 5}, False),
    (6, 3): ({2, 3, 5}, False),
    (6, 4): ({2, 3, 5}, False),
    (6, 5): ({2, 3}, False),
    (7, 0): ({7}, False),
    (7, 1): ({3, 7}, True),
    (7, 2): ({3, 7}, False),
    (7, 3): ({7}, True),
    (7, 4): ({3, 7}, False),
    (7, 5): ({3, 7}, True),
    (7, 6): ({7}, False),
    (8, 0): ({2}, False),
    (8, 1): ({2, 7}, False),
    (8, 2): ({2, 7}, False),
    (8, 3): ({2, 7}, False),
    (8, 4): ({2, 7}, False),
    (8, 5): ({2, 7}, False),
    (8, 6): ({2, 7}, False),
}


@dataclass(frozen=True)
class Verdict:
    claim_id: str
    tested_range: str
    agreements: int
    disagreements: tuple

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def to_line(self) -> str:
        inner = ",".join(str(d) for d in self.disagreements)
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.claim_id} range={self.tested_range} "
            f"agree={self.agreements} disagree=[{inner}] {status}"
        )


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _connected(maps: tuple, kind: str, ns) -> list[bool]:
    """Whether the graph of maps on the space kind:n is connected, for each
    n; read off the locus scan (pierpont on from2 at n_max = 2 has no n)."""
    counts = connectivity_locus(maps, kind, ns).component_counts if ns else ()
    return [c == 1 for c in counts]


def _tally(ns, got, predicate) -> tuple[int, list]:
    """(agreements, disagreeing n) of observed connectivity against the
    prediction for each n."""
    bad = [n for n, g in zip(ns, got) if g != predicate(n)]
    return len(ns) - len(bad), bad


def verify_lemma1(n_max: int) -> Verdict:
    """The doubling graph on {0..n-1} is connected iff n is a power of 2."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = range(2, n_max + 1)
    got = _connected((Affine(2, 0),), "zn", ns)
    agree, bad = _tally(ns, got, _is_power_of_two)
    return Verdict("lemma1", f"2..{n_max}", agree, tuple(bad))


def verify_artin(p_max: int) -> Verdict:
    """The doubling graph on nonzero residues is connected iff n is a power
    of 2 or a prime with 2 as a primitive root; also pins the frozen
    connected/disconnected prime lists up to 103."""
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    ns = range(2, p_max + 1)
    got = _connected((Affine(2, 0),), "znz", ns)
    agree, bad = _tally(
        ns,
        got,
        lambda n: _is_power_of_two(n) or (is_prime(n) and is_primitive_root(2, n)),
    )
    connected_primes = [
        n for n, g in zip(ns, got) if g and is_prime(n) and n % 2 == 1 and n <= 103
    ]
    if p_max >= 103:
        if tuple(connected_primes) != ARTIN_CONNECTED_PRIMES:
            bad.append(f"connected-prime-list={connected_primes}")
        observed_disconnected = tuple(
            p
            for p in range(3, 104)
            if is_prime(p) and p % 2 == 1 and p not in connected_primes
        )
        if observed_disconnected != ARTIN_DISCONNECTED_PRIMES:
            bad.append(f"disconnected-prime-list={observed_disconnected}")
    return Verdict("artin", f"2..{p_max}", agree, tuple(bad))


def verify_fermat(n_max: int, extras) -> Verdict:
    """The squaring graph on nonzero residues is connected iff n = 2 or n is
    a prime of the form 2^(2^k) + 1."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = list(range(2, n_max + 1)) + [int(e) for e in extras]
    got = _connected((PowerPlus(2, 0),), "znz", ns)
    agree, bad = _tally(ns, got, lambda n: n == 2 or is_fermat_prime(n))
    extra_txt = f"+{list(extras)}" if extras else ""
    return Verdict("fermat", f"2..{n_max}{extra_txt}", agree, tuple(bad))


def verify_collatz_triangles(p_max: int) -> Verdict:
    """The (2x, 3x+1) graph on Z_p has exactly 4 triangles for every prime
    p > 17, and exactly 6 at n = 13."""
    if p_max < 19:
        raise ValueError("p_max must be >= 19")
    ns = [13] + [p for p in range(19, p_max + 1) if is_prime(p)]
    _, found = edge_triangle_counts(preset("collatz", n) for n in ns)
    bad = [13] if found[0] != 6 else []
    bad += [f"p={p}:t={t}" for p, t in zip(ns[1:], found[1:].tolist()) if t != 4]
    agree = len(ns) - len(bad)
    return Verdict("collatz-triangles", f"13,primes 19..{p_max}", agree, tuple(bad))


def verify_pierpont(n_max: int, space_kind: str) -> Verdict:
    """The (x^2, x^3) graph on nonzero residues is connected iff n is a
    prime with n-1 smooth over {2,3}; also pins the frozen list to 577."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if space_kind not in PIERPONT_SPACE_KINDS:
        kinds = " or ".join(PIERPONT_SPACE_KINDS)
        raise ValueError(f"pierpont sweeps {kinds}, not {space_kind!r}")
    start = SPACE_KINDS[space_kind].first + 1
    ns = range(start, n_max + 1)
    got = _connected((PowerPlus(2, 0), PowerPlus(3, 0)), space_kind, ns)
    agree, bad = _tally(ns, got, lambda n: is_one_plus_smooth_prime(n, {2, 3}))
    connected = [n for n, g in zip(ns, got) if g]
    if space_kind == "znz" and n_max >= 577:
        listed = tuple(n for n in connected if n <= 577)
        if listed != PIERPONT_LIST_577:
            bad.append(f"list={listed}")
    return Verdict("pierpont", f"{start}..{n_max} on {space_kind}", agree, tuple(bad))


def verify_power_pair(a: int, b: int, n_max: int) -> Verdict:
    """The (x^a, x^b) graph on nonzero residues is connected iff n is prime
    and n-1 is smooth over the prime factors of a and b."""
    if a < 2 or b < 2:
        raise ValueError("exponents must be >= 2")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    prime_set = set(factorize(a).primes()) | set(factorize(b).primes())
    ns = range(2, n_max + 1)
    got = _connected((PowerPlus(a, 0), PowerPlus(b, 0)), "znz", ns)
    agree, bad = _tally(ns, got, lambda n: is_one_plus_smooth_prime(n, prime_set))
    ps = "{" + ",".join(str(p) for p in sorted(prime_set)) + "}"
    return Verdict("power-pair", f"x^{a},x^{b},P={ps},2..{n_max}", agree, tuple(bad))


def verify_affine_table(n_max: int) -> Verdict:
    """Each tabulated (a,b) cell: the connectivity locus of ax+b on Z_n
    equals the predicted (double-)smooth set up to n_max.  Containment: every
    connected n up to max(n_max, 500) is smooth over the primes of a and
    a-1, for all a <= 8, b < a."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    containment_max = max(n_max, 500)
    agree, bad = 0, []
    ns = range(1, containment_max + 1)
    for a in range(2, 9):
        allowed = set(factorize(a).primes()) | set(factorize(a - 1).primes())
        for b in range(a):
            conn = connectivity_locus((Affine(a, b),), "zn", ns).connected_params()
            if (a, b) in AFFINE_TABLE:
                primes, doubled = AFFINE_TABLE[(a, b)]
                maker = double_smooth_set if doubled else smooth_set
                want = list(maker(primes, n_max).members)
                got = [x for x in conn if x <= n_max]
                if got == want:
                    agree += 1
                else:
                    bad.append(f"cell({a},{b}):got={got}!=want={want}")
            escapees = [n for n in conn if not is_smooth(n, allowed)]
            if escapees:
                bad.append(f"containment({a},{b}):n={escapees}")
            else:
                agree += 1
    return Verdict(
        "affine-table", f"cells 1..{n_max}, containment 1..{containment_max}",
        agree, tuple(bad),
    )


def verify_collatz_connected(n_max: int) -> Verdict:
    """Reports every n <= n_max where the (2x, 3x+1) graph on Z_n is
    disconnected (none are expected)."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = range(2, n_max + 1)
    got = _connected((Affine(2, 0), Affine(3, 1)), "zn", ns)
    bad = [n for n, g in zip(ns, got) if not g]
    agree = len(ns) - len(bad)
    return Verdict("collatz-connected", f"2..{n_max}", agree, tuple(bad))


def verify_matrix_example() -> Verdict:
    """x^2 + [[1,2],[2,4]] on the 2x2 matrix ring over Z_5 gives a connected
    graph on 625 vertices."""
    family = MapFamily((MatQuad((1, 2, 2, 4)),), Mat2(5))
    count = components(build_graph(family))[0]
    bad = () if count == 1 else (f"components={count}",)
    return Verdict("matrix-example", "mat2:5 x^2+[[1,2],[2,4]]", 1 - len(bad), bad)


# claim id -> (checker, {parameter: default}); run_claim and the verify
# command both read it
CLAIMS = {
    "lemma1": (verify_lemma1, {"n_max": 4096}),
    "artin": (verify_artin, {"p_max": 2000}),
    "fermat": (verify_fermat, {"n_max": 1000, "extras": (65537,)}),
    "collatz-triangles": (verify_collatz_triangles, {"p_max": 499}),
    "pierpont": (verify_pierpont, {"n_max": 600, "space_kind": "znz"}),
    "power-pair": (verify_power_pair, {"a": 2, "b": 5, "n_max": 101}),
    "affine-table": (verify_affine_table, {"n_max": 200}),
    "collatz-connected": (verify_collatz_connected, {"n_max": 20000}),
    "matrix-example": (verify_matrix_example, {}),
}
CLAIM_IDS = tuple(CLAIMS)


def run_claim(claim_id: str, **kwargs) -> Verdict:
    """Run a claim of CLAIMS with its keyword parameters, defaults filled
    in; a parameter the claim does not take is a ValueError."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}; expected one of {CLAIM_IDS}")
    checker, defaults = CLAIMS[claim_id]
    for name in kwargs:
        if name not in defaults:
            raise ValueError(f"claim {claim_id} takes no {name}")
    return checker(**{**defaults, **kwargs})
