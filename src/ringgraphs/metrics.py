"""Graph statistics: components, diameter, characteristic path length,
clustering, triangles, Euler characteristic, degrees.

Path statistics are computed over the largest component, of m vertices, by
a bit-parallel BFS: 512 sources per pass, one bit each in 8 uint64 words
per vertex.  The vertices are relabelled once per graph into degree slabs,
each slab's neighbour lists a column-major table of one padded width, cut
into blocks of at most _SLAB_ENTRIES entries.  A level gathers each block's
frontier rows and ORs them over the width into its slice of the next
frontier, so a pass holds three (m+1) x 8-word arrays (frontier, next
frontier, unseen) and one gathered block, and the int32 tables, shared by
every pass, hold at most twice the CSR entries.  The scan is exact, all
sources, up to 2^16 vertices; above that a seeded sample of 2048 sources is
used and the sample size is recorded in the report.

Triangles come from the forward algorithm.  Each edge is kept once, as the
CSR entry out of its end of lower (degree, index) rank: a filter of the
sorted CSR taken over its row blocks, which needs no sort.  The wedges of
the oriented rows are walked over the same kind of row blocks in chunks of
at most _WEDGE_CHUNK, and each chunk's closing-edge queries are sorted
before they are looked up in the sorted edge keys.  Each triangle is seen
once, at its lowest-rank vertex; the 4-clique test extends those triangles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components

from . import rng
from .graphs import SimpleGraph, neighbour_table, row_blocks, row_pointer

EXACT_BFS_LIMIT = 1 << 16
SAMPLE_SOURCES = 2048
# vertices per block-diagonal matrix in component_counts: large enough that
# scipy's per-call cost is shared by many small graphs, small enough that a
# sweep's working set stays a few MB
_CHUNK_VERTICES = 1 << 16
# sources per bit-parallel BFS pass: 8 uint64 words per vertex
_BFS_SOURCES = 512
# neighbour entries per gathered block of the distance scan: 4 MiB at 8 words
_SLAB_ENTRIES = 1 << 16
# wedges per chunk of the triangle and 4-clique kernels
_WEDGE_CHUNK = 1 << 16


@dataclass(frozen=True)
class StatsReport:
    vertices: int
    edges: int
    components: int
    diameter: int
    mu: float | None
    nu_local: float
    nu_transitivity: float
    lam: float | None
    triangles: int
    euler_char: int
    mean_degree: float
    sampled_sources: int | None = None

    def to_json(self) -> str:
        doc = {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
        }
        return json.dumps(doc, indent=2) + "\n"


def _as_sparse(g: SimpleGraph) -> csr_matrix:
    data = np.ones(len(g.indices))  # float64, which scipy would otherwise copy to cast
    return csr_matrix(
        (data, g.indices, g.indptr), shape=(g.vertex_count, g.vertex_count)
    )


def components(g: SimpleGraph) -> tuple[int, np.ndarray]:
    """Component count and a per-vertex label array."""
    if g.vertex_count == 0:
        return 0, np.empty(0, dtype=np.int32)
    return _scipy_components(_as_sparse(g), directed=False)


def component_counts(graphs) -> np.ndarray:
    """Component count of each graph of a sweep, equal to
    components(build_graph(f))[0] for the family f behind it.

    A graph is given as its image tables, one array per map with -1 where a
    state has no image, and every graph of a sweep has the same number of
    maps.  The graphs are stacked into block-diagonal matrices of about
    _CHUNK_VERTICES vertices, one scipy call per matrix.  Each matrix is the
    regular CSR of graphs.neighbour_table, the table build_graph starts from,
    without its canonicalisation: a missing image becomes a self-loop and
    parallel images stay, neither of which changes a component count, so
    every vertex has one entry per map and the stacked CSR needs no sort.
    """
    counts = []
    chunk, total = [], 0
    for tables in graphs:
        if chunk and len(tables) != len(chunk[0]):
            raise ValueError("every graph of a sweep needs the same number of maps")
        size = len(tables[0])
        if chunk and total + size > _CHUNK_VERTICES:
            counts.append(_block_counts(chunk))
            chunk, total = [], 0
        chunk.append(tables)
        total += size
    if chunk:
        counts.append(_block_counts(chunk))
    return np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)


def _block_counts(chunk: list) -> np.ndarray:
    """Component counts of the graphs of one block-diagonal matrix."""
    sizes = np.array([len(tables[0]) for tables in chunk], dtype=np.int64)
    total = int(sizes.sum())
    maps = len(chunk[0])
    block = np.repeat(np.arange(len(chunk)), sizes)
    offset = (np.cumsum(sizes) - sizes)[block]
    table = neighbour_table(
        [np.concatenate([tables[k] for tables in chunk]) for k in range(maps)], offset
    )
    data = np.ones(table.size)  # float64, which scipy would otherwise sort to cast
    mat = csr_matrix((data, table.ravel(), row_pointer(table)), shape=(total, total))
    count, labels = _scipy_components(mat, directed=False)
    owner = np.empty(count, dtype=np.int64)
    owner[labels] = block  # no component spans two blocks
    return np.bincount(owner, minlength=len(chunk))


def _largest_component(g: SimpleGraph, labels: np.ndarray | None = None) -> np.ndarray:
    """Vertex indices of the largest component (smallest label wins ties)."""
    if labels is None:
        _, labels = components(g)
    sizes = np.bincount(labels)
    return np.nonzero(labels == int(np.argmax(sizes)))[0]


def _distance_scan(
    g: SimpleGraph, seed: int = 0, labels: np.ndarray | None = None
) -> tuple[int, float | None, int | None]:
    """(diameter, mu, sampled_sources) over the largest component."""
    if g.vertex_count == 0:
        raise ValueError("distance statistics need at least one vertex")
    member = _largest_component(g, labels)
    m = len(member)
    if m == 1:
        return 0, None, None
    sampled = None
    sources = member
    if g.vertex_count > EXACT_BFS_LIMIT and m > SAMPLE_SOURCES:
        sources = member[np.sort(rng.shuffled_range(m, seed)[:SAMPLE_SOURCES])]
        sampled = len(sources)
    rank, blocks = _degree_slabs(g, member)
    sources = rank[sources]
    diameter = 0
    total = 0
    for start in range(0, len(sources), _BFS_SOURCES):
        ecc, dist_sum = _bfs_pass(blocks, m, sources[start : start + _BFS_SOURCES])
        diameter = max(diameter, ecc)
        total += dist_sum
    mu = total / (len(sources) * (m - 1))
    return diameter, mu, sampled


def _degree_slabs(g: SimpleGraph, member: np.ndarray) -> tuple[np.ndarray, list]:
    """(rank, blocks): the vertices of member relabelled 0..m-1 in order of
    padded degree width, and their neighbour lists in blocks (lo, hi, table).

    rank[v] is the new label of a member v.  A vertex's width is its degree
    up to 16, else the next power of two, so there are few distinct widths.
    The new labels lo..hi-1 of a block share one width w, and table is the
    (w, hi - lo) int32 array whose column r lists the new labels of the
    neighbours of lo + r, padded with m.  A block holds at most
    _SLAB_ENTRIES entries, or one column if w is wider.
    """
    m = len(member)
    deg = np.diff(g.indptr)[member]
    # frexp(d - 1)[1] is the bit length of d - 1
    width = np.where(deg <= 16, deg, 1 << np.frexp(deg - 1)[1])
    order = np.argsort(width, kind="stable")
    old, deg, width = member[order], deg[order], width[order]  # by new label
    rank = np.empty(g.vertex_count, dtype=np.int32)  # read at members only
    rank[old] = np.arange(m, dtype=np.int32)
    cuts = np.flatnonzero(np.diff(width)) + 1
    blocks = []
    for first, last in zip(np.r_[0, cuts].tolist(), np.r_[cuts, m].tolist()):
        w = int(width[first])
        step = max(1, _SLAB_ENTRIES // w)
        for lo in range(first, last, step):
            hi = min(lo + step, last)
            row = np.arange(w)[:, None]
            inside = row < deg[lo:hi]
            pos = g.indptr[old[lo:hi]] + row
            table = np.full((w, hi - lo), m, dtype=np.int32)
            table[inside] = rank[g.indices[pos[inside]]]
            blocks.append((lo, hi, table))
    return rank, blocks


def _bfs_pass(blocks: list, m: int, sources: np.ndarray) -> tuple[int, int]:
    """(largest eccentricity, sum of distances) over distinct sources, given
    by their new labels in the slabs of _degree_slabs, as one bit-parallel
    BFS over the m relabelled vertices.

    Source i owns bit i % 64 of word i // 64 in every vertex's row.  Row m
    of both frontier buffers stays zero, so a padded table entry adds
    nothing, and a level gathers each block's rows and ORs them over the
    table's width straight into its slice of the next frontier.
    """
    words = -(-len(sources) // 64)
    frontier = np.zeros((m + 1, words), dtype=np.uint64)
    slot = np.arange(len(sources))
    frontier[sources, slot // 64] = np.uint64(1) << (slot % 64).astype(np.uint64)
    unseen = ~frontier
    reached = np.zeros_like(frontier)
    level = total = 0
    while True:
        for lo, hi, table in blocks:
            gathered = np.take(frontier, table, axis=0)
            np.bitwise_or.reduce(gathered, axis=0, out=reached[lo:hi])
        reached &= unseen
        count = int(np.bitwise_count(reached).sum(dtype=np.int64))
        if count == 0:
            return level, total
        level += 1
        total += level * count
        unseen ^= reached
        frontier, reached = reached, frontier


def _oriented(g: SimpleGraph):
    """(us, vs, keys, ptr, head): the canonical edges (us, vs) with u < v in
    the order of g.edge_arrays(), their sorted int64 keys u*V+v, and each
    edge once as the CSR entry x -> y of g with (deg x, x) < (deg y, y): the
    out-edges of x have the heads head[ptr[x]:ptr[x+1]], ascending as in g.
    No vertex has more than sqrt(2E) out-edges.  One pass over the row
    blocks of g fills them, with no sort."""
    n, deg = g.vertex_count, g.degrees()
    us = np.empty(g.edge_count, dtype=np.int32)
    vs = np.empty(g.edge_count, dtype=np.int32)
    head = np.empty(g.edge_count, dtype=np.int32)
    ptr = np.zeros(n + 1, dtype=g.indptr.dtype)  # out-degrees, then their sums
    filled = oriented = 0
    for start, stop in row_blocks(g.indptr):
        dst = g.indices[g.indptr[start] : g.indptr[stop]]
        src = np.repeat(np.arange(start, stop, dtype=np.int32), deg[start:stop])
        upper = src < dst
        deg_src, deg_dst = deg[src], deg[dst]
        out = (deg_src < deg_dst) | ((deg_src == deg_dst) & upper)
        ptr[start + 1 : stop + 1] = np.bincount(src[out] - start, minlength=stop - start)
        heads = dst[out]
        head[oriented : oriented + len(heads)] = heads
        oriented += len(heads)
        u, v = src[upper], dst[upper]
        us[filled : filled + len(u)], vs[filled : filled + len(u)] = u, v
        filled += len(u)
    np.cumsum(ptr, out=ptr)
    keys = np.multiply(us, n, dtype=np.int64)
    keys += vs
    return us, vs, keys, ptr, head


def _segment_pairs(counts: np.ndarray):
    """Every pair (item, j) with j < counts[item], as two index arrays in
    chunks of at most _WEDGE_CHUNK pairs."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _WEDGE_CHUNK):
        stop = min(start + _WEDGE_CHUNK, total)
        # the items holding the chunk's first and last pair, and each one's
        # share of the chunk
        lo, hi = np.searchsorted(ends, [start, stop - 1], side="right").tolist()
        share = np.minimum(ends[lo : hi + 1], stop)
        share -= np.maximum(ends[lo : hi + 1] - counts[lo : hi + 1], start)
        item = np.repeat(np.arange(lo, hi + 1), share)
        yield item, np.arange(start, stop) - (ends[item] - counts[item])


def _find_edges(keys: np.ndarray, n: int, a: np.ndarray, b: np.ndarray):
    """(position in keys, found) of each vertex pair (a, b)."""
    query = np.multiply(np.minimum(a, b), n, dtype=np.int64) + np.maximum(a, b)
    pos = np.searchsorted(keys, query)
    found = keys[np.minimum(pos, len(keys) - 1)] == query
    return pos, found


def _triangles(n: int, keys: np.ndarray, ptr: np.ndarray, head: np.ndarray):
    """Each triangle once, as its lowest-rank vertex x, the heads y < z of
    two out-edges of x, and the position in keys of its closing edge y-z.

    The wedges (y, z) are walked over the row blocks of ptr in chunks of at
    most _WEDGE_CHUNK.  A chunk's closing-edge queries are sorted before
    the search, so that successive binary searches share their path
    through keys, and only the found wedges are mapped back."""
    for start, stop in row_blocks(ptr):
        first = int(ptr[start])
        # out-edges after each position of the block in its row
        later = np.repeat(ptr[start + 1 : stop + 1], np.diff(ptr[start : stop + 1]))
        later = later - np.arange(first + 1, first + 1 + len(later))
        for k, j in _segment_pairs(later):
            k += first  # positions in head
            y, z = head[k], head[k + 1 + j]
            query = np.multiply(y, n, dtype=np.int64) + z  # y < z in a row
            order = np.argsort(query)
            query = query[order]
            pos = np.searchsorted(keys, query)
            found = keys[np.minimum(pos, len(keys) - 1)] == query
            wedge = order[found]
            x = start + np.searchsorted(ptr[start + 1 : stop + 1], k[wedge], side="right")
            yield x, y[wedge], z[wedge], pos[found]


def _edge_triangle_counts(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge common-neighbor counts for canonical edges (u, v)."""
    n = g.vertex_count
    us, vs, keys, ptr, head = _oriented(g)
    common = np.zeros(len(keys), dtype=np.int64)
    for x, y, z, closing in _triangles(n, keys, ptr, head):
        sides, _ = _find_edges(keys, n, np.concatenate([x, x]), np.concatenate([y, z]))
        np.add.at(common, np.concatenate([sides, closing]), 1)
    return us, vs, common


def triangle_count(g: SimpleGraph) -> int:
    """Number of 3-cliques, each counted once."""
    _, _, common = _edge_triangle_counts(g)
    return int(common.sum()) // 3


def _clustering_core(g: SimpleGraph) -> tuple[float, float, int]:
    """(nu_local, nu_transitivity, triangles) from one common-neighbor pass."""
    if g.vertex_count == 0:
        return 0.0, 0.0, 0
    us, vs, common = _edge_triangle_counts(g)
    twice_triangles = np.zeros(g.vertex_count, dtype=np.int64)
    np.add.at(twice_triangles, us, common)
    np.add.at(twice_triangles, vs, common)
    deg = g.degrees().astype(np.int64)
    possible = deg * (deg - 1) // 2
    local = np.zeros(g.vertex_count, dtype=np.float64)
    ok = possible > 0
    local[ok] = (twice_triangles[ok] / 2) / possible[ok]
    nu_local = float(math.fsum(local) / g.vertex_count)
    triples = int(possible.sum())
    nu_trans = (float(common.sum()) / triples) if triples else 0.0
    return nu_local, nu_trans, int(common.sum()) // 3


def clustering(g: SimpleGraph) -> tuple[float, float]:
    """(nu_local, nu_transitivity).

    nu_local averages per-vertex local clustering with degree < 2 vertices
    contributing 0; nu_transitivity is 3*triangles / length-2 path count.
    """
    nu_local, nu_trans, _ = _clustering_core(g)
    return nu_local, nu_trans


def lambda_coefficient(mu: float, nu: float) -> float | None:
    """-mu / ln(nu); None unless 0 < nu < 1."""
    if not 0.0 < nu < 1.0:
        return None
    return -mu / math.log(nu)


def euler_characteristic(g: SimpleGraph) -> int:
    """vertices - edges + triangles (meaningful for tetrahedron-free graphs)."""
    return g.vertex_count - g.edge_count + triangle_count(g)


def k4_free(g: SimpleGraph) -> bool:
    """True iff the graph has no 4-clique."""
    n = g.vertex_count
    _, _, keys, ptr, head = _oriented(g)
    # a 4-clique's lowest-rank vertex x has the other three as out-neighbours,
    # so it shows as a triangle x, y, z found at x plus an out-neighbour of x
    # adjacent to y and z
    for x, y, z, _ in _triangles(n, keys, ptr, head):
        for t, j in _segment_pairs(ptr[x + 1] - ptr[x]):
            d = head[ptr[x[t]] + j]
            _, with_y = _find_edges(keys, n, d, y[t])
            _, with_z = _find_edges(keys, n, d, z[t])
            if (with_y & with_z).any():
                return False
    return True


def degree_stats(g: SimpleGraph) -> tuple[float, tuple[int, ...]]:
    """(mean degree, histogram h with h[d] = number of degree-d vertices)."""
    if g.vertex_count == 0:
        return 0.0, ()
    deg = g.degrees()
    return 2 * g.edge_count / g.vertex_count, tuple(int(c) for c in np.bincount(deg))


def full_report(
    g: SimpleGraph, nu_estimator: str = "local", sample_seed: int = 0
) -> StatsReport:
    """All statistics in one pass; lambda uses the selected nu estimator."""
    if nu_estimator not in ("local", "transitivity"):
        raise ValueError("nu estimator must be 'local' or 'transitivity'")
    count, labels = components(g)
    diam, mu, sampled = _distance_scan(g, seed=sample_seed, labels=labels)
    nu_local, nu_trans, triangles = _clustering_core(g)
    mean_deg, _ = degree_stats(g)
    nu = nu_local if nu_estimator == "local" else nu_trans
    lam = lambda_coefficient(mu, nu) if mu is not None else None
    return StatsReport(
        vertices=g.vertex_count,
        edges=g.edge_count,
        components=count,
        diameter=diam,
        mu=mu,
        nu_local=nu_local,
        nu_transitivity=nu_trans,
        lam=lam,
        triangles=triangles,
        euler_char=g.vertex_count - g.edge_count + triangles,
        mean_degree=mean_deg,
        sampled_sources=sampled,
    )
