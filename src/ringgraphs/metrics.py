"""Graph statistics: components, diameter, characteristic path length,
clustering, triangles, Euler characteristic, degrees.

Every component count is one scipy call on CSR rows, _raw_components: a
graph's own, or a sweep chunk's (_sweep_chunks), a (table, sizes) pair of
graphs stacked block-diagonally in runs of rows.

Path statistics are computed over the largest component, of m vertices, by
a bit-parallel BFS: each pass walks 64 sources per uint64 word of every
vertex.  The BFS runs over the graph of representatives: the vertices with
equal neighbour lists (twins, grouped by a row hash and confirmed entry by
entry) form Q classes, and the subgraph induced on one vertex per class
keeps every distance between classes.  A hash collision can only split one
set of twins over more classes, and that changes no distance.  The sources
are the distinct classes of the source set, each weighted by the sources it
holds, with the sources of one weight in words of their own; a distance
counts its source's weight times its target's class size, and each ordered
pair inside one class adds 2, so the integer distance total is the one over
every vertex.  The Q rows are relabelled once per graph into degree slabs,
each slab's neighbour lists a column-major table of one padded width, cut
into blocks of at most _SLAB_ENTRIES entries.  A level gathers each block's
frontier rows and ORs them over the width into its slice of the next
frontier, then counts the new bits, weighted, in one popcount and one
einsum.  A pass of W words holds three (Q+1) x W-word arrays (frontier,
next frontier, unseen), a (Q+1) x W uint8 popcount and one gathered block,
25(Q+1) + 8B bytes a word for a largest block of B entries.  W is the
largest power of two that keeps this within _PASS_BYTES, 1.5 MiB, but at
least 2 words, and 4 when 2 words would take more than _WIDE_BYTES, 16 MiB.
So one pass takes every source of x^2+1,x^2+2 on Z_4000, the paper's
families from 2^16 vertices up take 2-word passes, and from 2^19 to 2^20
vertices on 4-word passes, 100(Q+1) + 32B bytes (402 MiB at Q = 2^22).  The
int32 tables, shared by every pass, hold at most twice the CSR entries.
How the sources are split into passes changes neither the distance total
nor the largest eccentricity.  The scan is exact, all sources, up to 2^16
vertices; above that a seeded sample of 2048 sources is used and the sample
size is recorded in the report.

Triangles and 4-cliques come from one clique-extension step.  Each edge is
kept once, as the CSR entry out of its end of lower (degree, index) rank: a
filter of the sorted CSR taken over its row blocks, which needs no sort.  A
clique grows from its lowest-rank vertex by each later out-neighbour of it
adjacent to all its other members, walked over the same row blocks in chunks
of at most _WEDGE_CHUNK whose queries are sorted before they are looked up
in the sorted edge keys.  Each triangle, seen once, adds 1 at its three
vertices; every triangle number reads these counts.  Beside them the kernel
holds the edge keys and the oriented rows: 9.7 MiB at the peak on
x^2+1,x^2+2 over Z_2^17.  The 4-clique test grows the triangles once more.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components

from . import rng
from .graphs import SimpleGraph, fill_images, loop_escapes, row_blocks, row_pointer, table_graph

EXACT_BFS_LIMIT = 1 << 16
SAMPLE_SOURCES = 2048
# vertices per block-diagonal chunk of a sweep (_sweep_chunks), and entries
# per chunk of the CA grid's contractions (survey._ca_cell_counts): large
# enough that the per-call cost of scipy and of the triangle kernel is shared
# by many small graphs, small enough that a sweep's working set stays a few MB
_CHUNK_VERTICES = 1 << 16
# the 64-source words of one distance-scan pass, a power of two: the most
# whose pass fits in _PASS_BYTES, but at least _PASS_WORDS, and twice that
# when a pass of _PASS_WORDS outgrows _WIDE_BYTES.  Wide passes share a
# level's per-call cost among more sources while the pass stays in a core's
# L2 cache (2 MiB where measured).  Past it, 2-word passes were fastest or
# within 6%; past _WIDE_BYTES, where rows come from memory, 4 words were up
# to 17% faster than 2, and 8 words at most 4% faster than 4 with twice the
# frontier memory (timed on both of the paper's families, 2^12 to 2^22)
_PASS_BYTES = 3 << 19
_PASS_WORDS = 2
_WIDE_BYTES = 16 << 20
# neighbour entries per gathered block of the distance scan, 8 bytes each per
# word of a pass: 1 MiB at 2 words; the pass width counts the largest block
_SLAB_ENTRIES = 1 << 16
# candidate members per chunk of the clique-extension step (_extend)
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


def components(g: SimpleGraph) -> tuple[int, np.ndarray]:
    """Component count and a per-vertex label array."""
    if g.vertex_count == 0:
        return 0, np.empty(0, dtype=np.int32)
    return _raw_components(g.indices, g.indptr)


def _sweep_chunks(families):
    """(table, sizes) of each block-diagonal chunk of a sweep of map
    families (the same number of maps in each): the neighbour table of
    about _CHUNK_VERTICES vertices of the families' graphs, each offset by
    the vertices before it, and the int32 vertex count of each graph in the
    chunk, whose rows follow one another in the table.

    The table is a view of one int32 buffer that the sweep reuses, valid
    until the next chunk.  graphs.fill_images writes each graph's images
    straight into its rows, and one graphs.loop_escapes per chunk offsets
    them.  The buffer holds _CHUNK_VERTICES rows, or a larger graph's,
    which takes a chunk of its own."""
    buffer, sizes, total = None, [], 0
    for family in families:
        size, k = family.space.size, len(family.maps)
        if buffer is not None and k != buffer.shape[1]:
            raise ValueError("every graph of a sweep needs the same number of maps")
        if sizes and total + size > _CHUNK_VERTICES:
            yield _offset_chunk(buffer[:total], sizes)
            sizes, total = [], 0
        if buffer is None or size > len(buffer):
            buffer = np.empty((max(size, _CHUNK_VERTICES), k), dtype=np.int32)
        fill_images(family, buffer[total : total + size])
        sizes.append(size)
        total += size
    if sizes:
        yield _offset_chunk(buffer[:total], sizes)


def _offset_chunk(table: np.ndarray, sizes: list) -> tuple[np.ndarray, np.ndarray]:
    """_sweep_chunks' chunk of the graphs of sizes, whose images fill
    table: each graph's images moved past the graphs before it."""
    sizes = np.array(sizes, dtype=np.int32)
    start = np.cumsum(sizes, dtype=np.int32) - sizes
    loop_escapes(table, np.repeat(start, sizes * table.shape[1]))
    return table, sizes


def _raw_components(indices: np.ndarray, indptr: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and labels of the graph whose CSR rows (indices,
    indptr) join each row to its entries: the one scipy call behind every
    component count.  The rows may be raw: self-loops and parallel entries
    change no component, so they need no sort."""
    data = np.ones(len(indices))  # float64, which scipy would otherwise copy to cast
    mat = csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
    return _scipy_components(mat, directed=False)


def _block_counts(indices: np.ndarray, indptr: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Component count of each graph stacked block-diagonally in the raw CSR
    rows (indices, indptr), graph j owning the sizes[j] rows after those of
    the graphs before it."""
    found, labels = _raw_components(indices, indptr)
    owner = np.empty(found, dtype=np.int64)
    owner[labels] = np.repeat(np.arange(len(sizes)), sizes)  # no component spans two graphs
    return np.bincount(owner, minlength=len(sizes))


def component_counts(families) -> np.ndarray:
    """Component count of the graph of each map family of a sweep, equal
    to components(build_graph(f))[0]: one _block_counts per chunk of
    _sweep_chunks, on its raw table."""
    counts = [np.zeros(0, dtype=np.int64)]
    for table, sizes in _sweep_chunks(families):
        counts.append(_block_counts(table.ravel(), row_pointer(table), sizes))
    return np.concatenate(counts)


def edge_triangle_counts(families) -> tuple[np.ndarray, np.ndarray]:
    """(edges, triangles) of the graph of each map family of a sweep, equal
    to the edge_count and triangle_count of build_graph(f).  Each chunk of
    _sweep_chunks goes once through graphs.table_graph and
    _edge_triangle_counts.  A graph's edges are half the degrees and its
    triangles a third of the triangle counts, each summed over its run of
    rows by np.add.reduceat, which no empty run misleads: every space has
    a state."""
    edges, triangles = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for table, sizes in _sweep_chunks(families):
        g = table_graph(table)
        at = _edge_triangle_counts(g)[1]
        starts = np.cumsum(sizes, dtype=np.int64) - sizes
        for out, per_row, share in ((edges, g.degrees(), 2), (triangles, at, 3)):
            out.append(np.add.reduceat(per_row, starts, dtype=np.int64) // share)
    return np.concatenate(edges), np.concatenate(triangles)


def _largest_component(g: SimpleGraph, labels: np.ndarray | None = None) -> np.ndarray:
    """Vertex indices of the largest component (smallest label wins ties),
    ascending, as int32."""
    if labels is None:
        _, labels = components(g)
    sizes = np.bincount(labels)
    return np.flatnonzero(labels == int(np.argmax(sizes))).astype(np.int32)


def _distance_scan(
    g: SimpleGraph, seed: int = 0, labels: np.ndarray | None = None
) -> tuple[int, float | None, int | None]:
    """(diameter, mu, sampled_sources) over the largest component.

    The BFS runs over the graph of representatives (_representatives): one
    vertex per twin class, the vertices of the component with equal
    neighbour lists.  Twins are never adjacent and classes are adjacent all
    or nothing, so distances between classes are the component's, and a
    class member has its representative's distance sum and eccentricity.
    The sources become their distinct classes, each weighted by the sources
    it holds, and the targets are weighted by class size.  Each source is 2
    from every other member of its class, which adds 2 per such pair and
    raises its eccentricity to 2 when its class has more than one member.
    Twins split over several classes by a hash collision are representatives
    2 apart, which counts them the same.  The integer distance total is the
    one over every vertex.
    """
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
    cls, size, rank, blocks = _representatives(g, member)
    src, weight = np.unique(cls[sources], return_counts=True)
    total = 2 * int((weight * (size[src] - 1)).sum())
    diameter = 2 if (size[src] > 1).any() else 0
    targets = np.zeros(len(size) + 1, dtype=np.int64)  # by new label; row Q weighs 0
    targets[rank] = size
    del cls, size  # not held through the passes
    src, slot, word_weight = _weighted_slots(rank[src], weight)
    # a word of a pass is 8 bytes a row in frontier, next frontier and
    # unseen, and one in found (_bfs_pass), and 8 a gathered block entry
    per_word = 25 * len(targets) + 8 * max(table.size for _, _, table in blocks)
    fit = _PASS_BYTES // per_word
    least = _PASS_WORDS if _PASS_WORDS * per_word <= _WIDE_BYTES else 2 * _PASS_WORDS
    step = 64 * max(least, 1 << fit.bit_length() >> 1)  # the power of two <= fit
    for start in range(0, 64 * len(word_weight), step):
        lo, hi = np.searchsorted(slot, [start, start + step]).tolist()
        ecc, dist_sum = _bfs_pass(
            blocks,
            targets,
            src[lo:hi],
            slot[lo:hi] - start,
            word_weight[start // 64 : (start + step) // 64],
        )
        diameter = max(diameter, ecc)
        total += dist_sum
    mu = total / (len(sources) * (m - 1))
    return diameter, mu, sampled


def _row_hashes(g: SimpleGraph) -> np.ndarray:
    """A uint64 hash of each vertex's neighbour list: the wrapping sum of
    rng.first_draws over its CSR row, taken over row blocks."""
    hashes = np.empty(g.vertex_count, dtype=np.uint64)
    for start, stop in row_blocks(g.indptr):
        base = g.indptr[start]
        nbr = g.indices[base : g.indptr[stop]].astype(np.uint64)
        ends = np.zeros(len(nbr) + 1, dtype=np.uint64)
        np.cumsum(rng.first_draws(nbr), out=ends[1:])
        bounds = g.indptr[start : stop + 1] - base
        hashes[start:stop] = ends[bounds[1:]] - ends[bounds[:-1]]
    return hashes


def _twin_classes(g: SimpleGraph, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex, first): member sorted by _row_hashes, and first[i] true
    where vertex[i] starts a class, a run of twins.

    A vertex joins the class of the one before it only if the two have the
    same hash, the same degree and CSR rows equal entry by entry, so every
    class holds twins only.  A hash collision can only split one set of
    twins over several classes, which changes no distance (_distance_scan).
    """
    hashes = _row_hashes(g)[member]
    order = np.argsort(hashes)
    vertex, hashes = member[order], hashes[order]
    deg = g.degrees()
    a, b = vertex[:-1], vertex[1:]
    same = (hashes[1:] == hashes[:-1]) & (deg[a] == deg[b])
    pairs = np.flatnonzero(same)
    for item, j in _segment_pairs(deg[a[pairs]]):
        p = pairs[item]
        differ = g.indices[g.indptr[a[p]] + j] != g.indices[g.indptr[b[p]] + j]
        same[p[differ]] = False
    del deg  # before the result is built: the allocator's heap stays lower
    return vertex, np.concatenate(([True], ~same))


def _representatives(g: SimpleGraph, member: np.ndarray):
    """(cls, size, rank, blocks): the classes of member by _twin_classes,
    and the _degree_slabs of the graph they induce through one
    representative each.

    cls[v] is the class 0..Q-1 of a member v and size[c] the number of
    members of class c.  Each class holds twins only, though one set of
    twins may span several classes.  The classes are numbered in the order
    of their representatives, the first vertex of each run of _twin_classes,
    which keeps the locality of the vertex order in the slabs."""
    vertex, first = _twin_classes(g, member)
    # int32 and in place: what this builds and frees stays on the heap of
    # the allocator through the passes
    is_rep = np.zeros(g.vertex_count, dtype=bool)
    is_rep[vertex[first]] = True
    reps = np.flatnonzero(is_rep).astype(np.int32)
    label = np.cumsum(is_rep, dtype=np.int32)
    label -= 1
    cls = np.empty(g.vertex_count, dtype=np.int32)  # read at members only
    run = np.cumsum(first, dtype=np.int32)
    run -= 1
    cls[vertex] = label[vertex[first]][run]
    del label, run, vertex, first, is_rep
    size = np.bincount(cls[member])
    ones = np.ones(len(g.indices), dtype=np.int8)
    induced = csr_matrix((ones, g.indices, g.indptr), shape=(g.vertex_count,) * 2)[reps][:, reps]
    return cls, size, *_degree_slabs(induced.indptr, induced.indices, size)


def _degree_slabs(
    indptr: np.ndarray, indices: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, list]:
    """(rank, blocks): the Q rows of a CSR whose every row has an entry,
    relabelled 0..Q-1 in order of padded degree width and then of size,
    and their neighbour lists in blocks (lo, hi, table).

    rank[c] is the new label of row c.  A row's width is its degree up to
    16, else the next power of two, so there are few distinct widths.  The
    new labels lo..hi-1 of a block share one width w, and table is the
    (w, hi - lo) int32 array whose column r lists the new labels of the
    neighbours of lo + r, padded with Q.  A block holds at most
    _SLAB_ENTRIES entries, or one column if w is wider.
    """
    q = len(size)
    deg = np.diff(indptr)
    # frexp(d - 1)[1] is the bit length of d - 1
    width = np.where(deg <= 16, deg, 1 << np.frexp(deg - 1)[1])
    order = np.lexsort((size, width))
    deg, width = deg[order], width[order]  # by new label
    rank = np.empty(q, dtype=np.int32)
    rank[order] = np.arange(q, dtype=np.int32)
    cuts = np.flatnonzero(np.diff(width)) + 1
    blocks = []
    for first, last in zip(np.r_[0, cuts].tolist(), np.r_[cuts, q].tolist()):
        w = int(width[first])
        step = max(1, _SLAB_ENTRIES // w)
        for lo in range(first, last, step):
            hi = min(lo + step, last)
            row = np.arange(w)[:, None]
            inside = row < deg[lo:hi]
            pos = indptr[order[lo:hi]] + row
            table = np.full((w, hi - lo), q, dtype=np.int32)
            table[inside] = rank[indices[pos[inside]]]
            blocks.append((lo, hi, table))
    return rank, blocks


def _runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """(lo, hi, value) of each run of equal entries of values."""
    bounds = [0, *(np.flatnonzero(np.diff(values)) + 1).tolist(), len(values)]
    return [(lo, hi, int(values[lo])) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _weighted_slots(sources: np.ndarray, weight: np.ndarray):
    """(sources, slot, word_weight): the sources in order of weight, the
    BFS bit slot of each, ascending, and the weight of each 64-slot word.

    The sources of one weight fill whole words from a word of their own,
    so that every word holds sources of one weight."""
    order = np.argsort(weight, kind="stable")
    slot = np.empty(len(order), dtype=np.int64)
    word_weight = []
    for lo, hi, w in _runs(weight[order]):
        slot[lo:hi] = 64 * len(word_weight) + np.arange(hi - lo)
        word_weight += [w] * -(-(hi - lo) // 64)
    return sources[order], slot, np.array(word_weight)


def _bfs_pass(
    blocks: list, targets: np.ndarray, sources: np.ndarray, slot: np.ndarray, word_weight
) -> tuple[int, int]:
    """(largest eccentricity, weighted sum of distances) over distinct
    sources, given by their new labels in the slabs of _degree_slabs, as one
    bit-parallel BFS over the Q relabelled rows.

    Source i owns bit slot[i] % 64 of word slot[i] // 64 in every row.  A
    distance counts the weight of its source's word times targets[r], the
    size of the target's class r.  Row Q of both frontier buffers stays
    zero, so a padded table entry adds nothing, and a level gathers each
    block's rows and ORs them over the table's width straight into its
    slice of the next frontier.
    """
    frontier = np.zeros((len(targets), len(word_weight)), dtype=np.uint64)
    frontier[sources, slot // 64] = np.uint64(1) << (slot % 64).astype(np.uint64)
    unseen = ~frontier
    reached = np.zeros_like(frontier)
    found = np.empty(frontier.shape, dtype=np.uint8)
    level = total = 0
    while True:
        for lo, hi, table in blocks:
            gathered = np.take(frontier, table, axis=0)
            np.bitwise_or.reduce(gathered, axis=0, out=reached[lo:hi])
        reached &= unseen
        count = _weighted_count(reached, targets, word_weight, found)
        if count == 0:
            return level, total
        level += 1
        total += level * count
        unseen ^= reached
        frontier, reached = reached, frontier


def _weighted_count(
    bits: np.ndarray, row_weight: np.ndarray, word_weight: np.ndarray, found: np.ndarray
) -> int:
    """The set bits of the (rows, words) array bits, each counted as the
    int64 weight of its row times that of its word, with found a uint8
    buffer of the shape of bits.  The sum runs over the transposed popcounts
    in row-major order, so that each word is one long inner loop of einsum,
    which casts found to int64 a buffer at a time."""
    np.bitwise_count(bits, out=found)
    return int(np.einsum("ji,i->j", found.T, row_weight, order="C") @ word_weight)


def _oriented(g: SimpleGraph):
    """(keys, ptr, head): the sorted int64 keys u*V+v of the canonical edges
    u < v, and each edge once as the CSR entry x -> y of g with
    (deg x, x) < (deg y, y): the out-edges of x have the heads
    head[ptr[x]:ptr[x+1]], ascending as in g.  No vertex has more than
    sqrt(2E) out-edges.  One pass over the row blocks of g fills them, with
    no sort."""
    n, deg = g.vertex_count, g.degrees()
    keys = np.empty(g.edge_count, dtype=np.int64)
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
        key = np.multiply(src[upper], n, dtype=np.int64) + dst[upper]
        keys[filled : filled + len(key)] = key
        filled += len(key)
    np.cumsum(ptr, out=ptr)
    return keys, ptr, head


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


def _edges(ptr: np.ndarray):
    """Each oriented edge x -> head[p] as a 2-clique of _extend: chunks
    (x, at) with at the column of positions p, one per row block of ptr."""
    for start, stop in row_blocks(ptr):
        x = np.repeat(np.arange(start, stop, dtype=np.int32), np.diff(ptr[start : stop + 1]))
        yield x, np.arange(ptr[start], ptr[stop], dtype=ptr.dtype)[:, None]


def _extend(n: int, keys: np.ndarray, ptr: np.ndarray, head: np.ndarray, cliques):
    """Chunks of (k+1)-cliques, each clique once, from chunks of k-cliques.

    A chunk (x, at) holds each clique's lowest-rank vertex x and, in a
    (c, k-1) array, the positions in head of its other members, ascending
    in the row of x.  A clique grows by each later head of that row adjacent
    to all its other members, looked up member by member in chunks of at
    most _WEDGE_CHUNK candidates.  The queries are sorted before the search,
    so that successive binary searches share their path through keys."""
    for x, at in cliques:
        last = at[:, -1]
        for item, j in _segment_pairs(ptr[x + 1] - last - 1):
            p = last[item] + 1 + j
            for col in range(at.shape[1]):
                # a row ascends, so each member is below the candidate head[p]
                query = np.multiply(head[at[item, col]], n, dtype=np.int64) + head[p]
                order = np.argsort(query)
                query = query[order]
                pos = np.searchsorted(keys, query)
                found = order[keys[np.minimum(pos, len(keys) - 1)] == query]
                item, p = item[found], p[found]
            yield x[item], np.column_stack((at[item], p))


def _edge_triangle_counts(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray]:
    """(keys, at): the sorted keys u*V+v of the canonical edges u < v and
    the int64 number of triangles at each vertex.

    The one triangle kernel: each triangle of _extend over _edges adds 1 at
    its three vertices, so at sums to 3T.  The benchmark hooks it by this
    name and reads len(keys) as the edge count."""
    n = g.vertex_count
    keys, ptr, head = _oriented(g)
    at = np.zeros(n, dtype=np.int64)
    for x, pos in _extend(n, keys, ptr, head, _edges(ptr)):
        np.add.at(at, np.concatenate([x, head[pos.ravel()]]), 1)
    return keys, at


def triangle_count(g: SimpleGraph) -> int:
    """Number of 3-cliques, each counted once."""
    _, at = _edge_triangle_counts(g)
    return int(at.sum()) // 3


def _clustering_core(g: SimpleGraph) -> tuple[float, float, int]:
    """(nu_local, nu_transitivity, triangles) from per-vertex triangle counts."""
    if g.vertex_count == 0:
        return 0.0, 0.0, 0
    _, at = _edge_triangle_counts(g)
    deg = g.degrees().astype(np.int64)
    possible = deg * (deg - 1) // 2
    local = np.zeros(g.vertex_count, dtype=np.float64)
    ok = possible > 0
    local[ok] = at[ok] / possible[ok]
    nu_local = float(math.fsum(local) / g.vertex_count)
    triples = int(possible.sum())
    three_t = int(at.sum())
    nu_trans = (three_t / triples) if triples else 0.0
    return nu_local, nu_trans, three_t // 3


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
    """vertices - edges + triangles: the Euler characteristic of the clique
    complex only when k4_free(g).  x^2+1,x^2+2 on Z_13 has clique counts 13,
    23, 8 and 1, so this is -2 where the clique complex has -3."""
    return g.vertex_count - g.edge_count + triangle_count(g)


def k4_free(g: SimpleGraph) -> bool:
    """True iff the graph has no 4-clique: _extend grows no triangle."""
    n = g.vertex_count
    keys, ptr, head = _oriented(g)
    triangles = _extend(n, keys, ptr, head, _edges(ptr))
    return not any(len(x) for x, _ in _extend(n, keys, ptr, head, triangles))


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
