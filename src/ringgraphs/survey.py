"""Parameter-space campaigns: connectivity loci over moduli, the 256x256
cellular-automaton connectivity grid, the Euler-characteristic sequence, the
census of primes with 2 as a primitive root, and the random-permutation
length-cluster experiment.

All sweeps are deterministic; seeded experiments reproduce bit-for-bit from
(n, trials, seed).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

# components and _scipy_components are no longer called here; they stay
# importable because perfbench/spans.py traces survey's calls by these names
from scipy.sparse.csgraph import connected_components as _scipy_components  # noqa: F401

from . import metrics, rng
from .graphs import build_graph, row_pointer
from .maps import (
    CARule,
    MapExpr,
    MapFamily,
    Perm,
    PowerPlus,
    format_map,
    image_table,
)
from .metrics import component_counts, components, edge_triangle_counts, full_report  # noqa: F401
from .numtheory import first_primes, is_primitive_root
from .spaces import BitVec, Zn, parse_space

GRID_RULES = 256


@dataclass(frozen=True)
class LocusResult:
    """Per-parameter component counts for one sweep, sorted by parameter:
    the swept moduli of a locus, or the pair keys a*256 + b, range(65536),
    of the CA grid."""

    params: tuple[int, ...] | range
    component_counts: tuple[int, ...]
    generation: tuple[tuple[str, str], ...]

    def connected_params(self) -> tuple:
        return tuple(
            p for p, c in zip(self.params, self.component_counts) if c == 1
        )

    def to_csv(self) -> str:
        lines = ["param,components,connected"]
        for p, c in zip(self.params, self.component_counts):
            lines.append(f"{p},{c},{1 if c == 1 else 0}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LambdaCensus:
    """Per-trial length-cluster coefficients for seeded permutation pairs."""

    n: int
    trials: int
    seed: int
    lambdas: tuple[float | None, ...]
    mean: float | None
    std: float | None
    undefined_count: int

    def to_csv(self) -> str:
        lines = ["trial,lambda"]
        for i, lam in enumerate(self.lambdas):
            lines.append(f"{i},{_fmt9(lam) if lam is not None else 'undef'}")
        mean = _fmt9(self.mean) if self.mean is not None else "undef"
        std = _fmt9(self.std) if self.std is not None else "undef"
        lines.append(
            f"# n={self.n} trials={self.trials} seed={self.seed} "
            f"mean={mean} std={std} undefined={self.undefined_count}"
        )
        return "\n".join(lines) + "\n"


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def connectivity_locus(
    maps: tuple[MapExpr, ...], space_kind: str, n_values
) -> LocusResult:
    """Component counts of the graphs generated by the given maps on the
    space family space_kind:n for each swept n."""
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise ValueError("empty sweep range")
    # the kind is parsed once: parse_space(f"{space_kind}:{n}") is the
    # first space's class with the first space's other fields and n last
    first = parse_space(f"{space_kind}:{n_values[0]}")
    kind, prefix = type(first), [getattr(first, f.name) for f in fields(first)[:-1]]
    counts = component_counts(MapFamily(maps, kind(*prefix, n)) for n in n_values)
    gen = (("space", space_kind), ("maps", ",".join(format_map(m) for m in maps)))
    return LocusResult(
        params=n_values,
        component_counts=tuple(counts.tolist()),
        generation=gen,
    )


def euler_sequence(n_max: int) -> tuple[int, ...]:
    """Euler characteristic V - E + T of the squaring-map graph on Z_n,
    n = 1..n_max, from one sweep of metrics.edge_triangle_counts."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    families = (MapFamily((PowerPlus(2, 0),), Zn(n)) for n in range(1, n_max + 1))
    edges, triangles = edge_triangle_counts(families)
    return tuple((np.arange(1, n_max + 1) - edges + triangles).tolist())


# ---------------------------------------------------------------------------
# cellular-automaton connectivity grid


def _rule_symmetries() -> tuple[np.ndarray, np.ndarray]:
    """(mirror, complement) as permutations of the elementary rules:
    mirror[r](l, c, q) = r(q, c, l) and complement[r](n) = 1 - r(7 - n)."""
    n = np.arange(8)
    bits = np.arange(GRID_RULES)[:, None] >> n & 1  # bits[r, n] = r(n)
    weights = 1 << n
    mirror = bits[:, (n & 1) << 2 | n & 2 | n >> 2] @ weights
    complement = (1 - bits[:, 7 - n]) @ weights
    return mirror, complement


_MIRROR, _COMPLEMENT = _rule_symmetries()


def _orbit_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The key min*256+max of the smallest pair in the orbit of each rule
    pair {a, b} under mirror and complement."""
    key = a * GRID_RULES + b
    for g in (_MIRROR, _COMPLEMENT, _MIRROR[_COMPLEMENT]):
        ga, gb = g[a], g[b]
        key = np.minimum(key, np.minimum(ga, gb) * GRID_RULES + np.maximum(ga, gb))
    return key


def _ca_cell_counts(width: int, keys: np.ndarray) -> np.ndarray:
    """Component counts of the rule pairs (key // 256, key % 256), in the
    order of keys.

    The graph of a pair (a, b) is the union of the functional graphs of a
    and b, so it has the components of its contraction: the graph on the
    components of a, with one entry label_a[x] -> label_a[b(x)] per state x.
    a's own edges already connect each of its components, so contracting
    them changes no component count.  The keys come in runs of one first
    rule a, whose one-map graph is labelled once per run.  The contraction
    of each pair of the run has a's component count of vertices and one
    entry per state; its rows follow a's components, so one stable argsort
    of label_a orders the entries of every pair of the run.  The run's
    contractions are stacked block-diagonally, at most
    metrics._CHUNK_VERTICES entries (or one pair) to a chunk, and each chunk
    is counted by metrics._block_counts."""
    space = BitVec(width)
    states = space.size
    tables = np.empty((GRID_RULES, states), dtype=np.int32)
    for r in range(GRID_RULES):
        image_table(CARule(r), space, out=tables[r])
    first, second = np.divmod(keys, GRID_RULES)
    per_chunk = max(1, metrics._CHUNK_VERTICES // states)
    runs = np.flatnonzero(np.diff(first, prepend=-1, append=-1))
    counts = [np.zeros(0, dtype=np.int64)]
    for start, stop in zip(runs[:-1].tolist(), runs[1:].tolist()):
        table = tables[first[start]]
        found, label = metrics._raw_components(table, row_pointer(table[:, None]))
        order = np.argsort(label, kind="stable")
        row_start = np.searchsorted(label[order], np.arange(found)).astype(np.int32)
        for lo in range(start, stop, per_chunk):
            rules = second[lo : min(lo + per_chunk, stop)]
            pairs = np.arange(len(rules), dtype=np.int32)[:, None]
            indices = label[tables[np.ix_(rules, order)]] + found * pairs
            indptr = np.append(row_start + states * pairs, np.int32(len(rules) * states))
            sizes = np.full(len(rules), found)
            counts.append(metrics._block_counts(indices.ravel(), indptr, sizes))
    return np.concatenate(counts)


def ca_mandelbrot(width: int, workers: int = 1) -> LocusResult:
    """Connectivity of the graph on width-w bit vectors generated by each
    pair of elementary CA rules; 256x256 symmetric grid.

    Mirroring a rule conjugates its map by the bit reversal of the states,
    and complementing it by the bit flip, so both symmetries carry a pair
    graph to an isomorphic one.  Components are counted once per orbit of
    the unordered pair {a, b} under mirror and complement (8,896 of the
    32,896 pairs) and copied to the rest of the orbit; workers > 1 splits
    those representative pairs into that many parts, counted by a pool of
    at most os.cpu_count() processes, and the grid is the same for every
    worker count.  The params are range(65536): entry a*256 + b is the
    count of the pair (a, b), so grid_of reshapes the counts row by a."""
    if not 3 <= width <= 20:
        raise ValueError("width must be in 3..20")
    a, b = np.triu_indices(GRID_RULES)
    keys, cell_key = np.unique(_orbit_keys(a, b), return_inverse=True)
    if workers <= 1:
        key_counts = _ca_cell_counts(width, keys)
    else:
        parts = np.array_split(keys, workers)
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            key_counts = np.concatenate(
                list(pool.map(_ca_cell_counts, [width] * workers, parts))
            )
    full = np.zeros((GRID_RULES, GRID_RULES), dtype=np.int32)
    full[a, b] = full[b, a] = key_counts[cell_key]
    return LocusResult(
        params=range(GRID_RULES * GRID_RULES),
        component_counts=tuple(full.ravel().tolist()),
        generation=(("space", f"bits:{width}"), ("maps", "ca:a,ca:b")),
    )


def grid_of(result: LocusResult) -> np.ndarray:
    """Reshape a rule-pair locus into its 256x256 connectivity grid."""
    counts = np.array(result.component_counts, dtype=np.int32)
    return (counts == 1).reshape(GRID_RULES, GRID_RULES)


def to_pbm(result: LocusResult) -> str:
    """Plain PBM (P1) bitmap of the connectivity grid; 1 = connected."""
    rows = np.full((GRID_RULES, GRID_RULES + 1), ord("\n"), dtype=np.uint8)
    rows[:, :-1] = grid_of(result) + ord("0")
    return f"P1\n{GRID_RULES} {GRID_RULES}\n" + rows.tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# censuses


def permutation_lambda(n: int, trials: int, seed: int) -> LambdaCensus:
    """Length-cluster coefficient over graphs from independent seeded
    permutation pairs on Z_n; undefined trials (nu outside (0,1)) are counted
    separately, not coerced."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stream = rng.SeedStream(seed)
    lambdas: list[float | None] = []
    for _ in range(trials):
        s1 = stream.next_u64()
        s2 = stream.next_u64()
        family = MapFamily((Perm(s1), Perm(s2)), Zn(n))
        report = full_report(build_graph(family))
        lambdas.append(report.lam)
    defined = [x for x in lambdas if x is not None]
    if defined:
        mean = math.fsum(defined) / len(defined)
        var = math.fsum((x - mean) ** 2 for x in defined) / len(defined)
        std = math.sqrt(var)
    else:
        mean = std = None
    return LambdaCensus(
        n=n,
        trials=trials,
        seed=seed,
        lambdas=tuple(lambdas),
        mean=mean,
        std=std,
        undefined_count=len(lambdas) - len(defined),
    )


def artin_census(prime_count: int) -> tuple[int, float]:
    """(count, fraction) of the first prime_count primes having 2 as a
    primitive root; p = 2 never qualifies."""
    if prime_count < 1:
        raise ValueError("prime_count must be >= 1")
    count = 0
    for p in first_primes(prime_count):
        p = int(p)
        if p > 2 and is_primitive_root(2, p):
            count += 1
    return count, count / prime_count
