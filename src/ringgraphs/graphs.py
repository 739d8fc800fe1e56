"""Build the finite simple graph induced by a map family.

Distinct states x, y are joined iff some map sends one to the other.
Self-loops are dropped and parallel images deduplicated, so the result is a
plain undirected simple graph in compressed sorted-adjacency form.  The
image tables become one int32 neighbour table, k entries per state, which
table_graph canonicalises.  The sweep kernel of metrics has fill_images
write each graph's images straight into its rows of one chunk buffer,
reused from chunk to chunk, so a chunk's table is valid only until the
next chunk; loop_escapes turns the missing images of either table into
self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np
from scipy.sparse import csr_matrix

from .maps import MapFamily, image_table
from .spaces import SIZE_CAP, ResidueSpace, StateSpace


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; indptr/indices are int32 arrays forming a
    CSR adjacency whose neighbor lists are sorted (V <= SIZE_CAP < 2^31)."""

    vertex_count: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    edge_count: int

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_arrays(self, start=0, stop=None) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edges (u, v) with u < v of the rows u in [start, stop),
        all rows by default, sorted ascending, as two int32 arrays; a key
        u*V+v needs an int64 product."""
        stop = self.vertex_count if stop is None else stop
        rows = np.arange(start, stop, dtype=np.int32)
        src = np.repeat(rows, np.diff(self.indptr[start : stop + 1]))
        dst = self.indices[self.indptr[start] : self.indptr[stop]]
        mask = src < dst
        return src[mask], dst[mask]


def graph_from_edges(vertex_count: int, us, vs) -> SimpleGraph:
    """Canonicalize raw endpoint arrays (loops dropped, duplicates merged)
    into a SimpleGraph.

    The pairs become one boolean CSR matrix, a loop stored as False, which
    goes through the same symmetrise-and-sort step as build_graph."""
    if vertex_count > SIZE_CAP:
        raise ValueError(f"{vertex_count} vertices above the {SIZE_CAP}-state cap")
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    for ends in (us, vs):
        if ends.size and not (ends.min() >= 0 and ends.max() < vertex_count):
            bad = ends[(ends < 0) | (ends >= vertex_count)][0]
            raise ValueError(f"endpoint {bad} outside [0, {vertex_count})")
    shape = (vertex_count, vertex_count)
    return _simple_graph(csr_matrix((us != vs, (us, vs)), shape=shape))


def _simple_graph(adjacency: csr_matrix) -> SimpleGraph:
    """The simple graph of a boolean adjacency matrix whose loops, if any,
    are stored as False.

    adjacency + adjacency.T ORs every entry with its reverse, merges
    duplicates and keeps only the True results, so loops drop out; then
    each row is sorted in place."""
    both = adjacency + adjacency.T
    both.sort_indices()
    return SimpleGraph(adjacency.shape[0], both.indptr, both.indices, both.nnz // 2)


def image_tables(family: MapFamily) -> list[np.ndarray]:
    """One image table per map of the family, -1 where there is no image."""
    return [image_table(m, family.space) for m in family.maps]


def fill_images(family: MapFamily, rows: np.ndarray) -> None:
    """Write the image table of map j of the family into column j of rows,
    a (family.space.size, k) int32 view."""
    for j, m in enumerate(family.maps):
        image_table(m, family.space, out=rows[:, j])


def loop_escapes(table: np.ndarray, start=None) -> None:
    """In place, on a C-contiguous (V, k) int32 table of images, -1 where
    an image is missing: add start (one int32 per entry, row-major) if
    given, and make each missing image its row's own index, a self-loop.
    The flat table is used because numpy's passes over a column, or
    broadcast from one start per row, take several times longer at k = 2."""
    flat = table.reshape(-1)
    missing = np.flatnonzero(flat < 0)
    if start is not None:
        flat += start
    flat[missing] = missing // table.shape[1]


def neighbour_table(tables: list[np.ndarray]) -> np.ndarray:
    """The (V, k) int32 table of k image tables over V states: column j
    holds map j's images, and a missing image (-1) becomes the row's own
    vertex (loop_escapes)."""
    table = np.empty((len(tables[0]), len(tables)), dtype=np.int32)
    for j, img in enumerate(tables):
        table[:, j] = img
    loop_escapes(table)
    return table


def row_pointer(table: np.ndarray) -> np.ndarray:
    """The CSR row pointer of a (V, k) neighbour table, k entries per row.
    It is int32 unless V * k would wrap it, so that scipy keeps it and the
    table as they are: given an int64 one, it makes an int32 copy while
    the caller still holds the original."""
    dtype = np.int32 if table.size < 1 << 31 else np.int64
    return np.arange(0, table.size + 1, table.shape[1], dtype=dtype)


def table_graph(table: np.ndarray) -> SimpleGraph:
    """The simple graph of a (V, k) neighbour table: i ~ j (i != j) iff j is
    in row i or i in row j; a sweep's stacked table gives a disjoint union."""
    # loops, missing images included, enter as False and drop out of a + a.T
    moves = table != np.arange(len(table), dtype=np.int32)[:, None]
    csr = (moves.ravel(), table.ravel(), row_pointer(table))
    return _simple_graph(csr_matrix(csr, shape=(len(table),) * 2))


def build_graph(family: MapFamily) -> SimpleGraph:
    """Vertex i ~ vertex j (i != j) iff some map sends state i to state j or
    state j to state i."""
    return table_graph(neighbour_table(image_tables(family)))


# CSR entries per row block of the export and of the triangle kernel, rows
# per ASCII matrix in _text_rows and states per label block of export_dot;
# bounds the memory of each at a few MB
_EXPORT_CHUNK = 1 << 16


@cache
def _digit_groups() -> np.ndarray:
    """Read-only uint32 table whose entry i holds the four ASCII bytes of
    f"{i:04d}".  It is built from bytes and only ever viewed back as bytes,
    so the text does not depend on the byte order; built on first use, so
    that importing the package does not pay for it."""
    digits = np.arange(10**4)[:, None] // (1000, 100, 10, 1) % 10 + ord("0")
    groups = digits.astype(np.uint8).view(np.uint32).ravel()
    groups.flags.writeable = False
    return groups


def _text_rows(columns: tuple[np.ndarray, ...], texts: tuple[str, ...]) -> str:
    """texts[0] + columns[0][i] + texts[1] + ... + columns[-1][i] + texts[-1]
    for each row i, concatenated: k equal-length arrays of non-negative
    integers between k + 1 literal texts.

    Each chunk of rows becomes one (rows, width) uint8 matrix of ASCII
    rows copied from a template line, with each column written in as
    fixed-width decimal digits, the width of its own largest value, whose
    leading zeros a mask drops when the rows are joined.  The digits go in
    four at a time: one % 10**4 and one gather from _digit_groups() per
    group, then one 1-D column copy per digit."""
    if len(columns[0]) == 0:
        return ""
    table = _digit_groups()
    widths = [len(str(int(column.max()))) for column in columns]
    line = texts[0] + "".join("0" * w + text for w, text in zip(widths, texts[1:]))
    template = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    # the template column just past each number's units digit
    stops = list(accumulate(len(text) + w for text, w in zip(texts, widths)))
    out = []
    for start in range(0, len(columns[0]), _EXPORT_CHUNK):
        chunk = slice(start, start + _EXPORT_CHUNK)
        rows = np.tile(template, (len(columns[0][chunk]), 1))
        keep = np.ones(rows.shape, dtype=bool)
        for stop, width, column in zip(stops, widths, columns):
            ends = rest = column[chunk]
            for k in range(width):  # k-th digit from the right, in column stop-1-k
                if k % 4 == 0:  # the top group is below 10**4 already
                    low = rest % 10**4 if k + 4 < width else rest
                    group = table[low].view(np.uint8).reshape(-1, 4)
                    rest = rest // 10**4
                rows[:, stop - 1 - k] = group[:, 3 - k % 4]
                if k:  # the units digit is always kept
                    keep[:, stop - 1 - k] = ends >= 10**k
        out.append(rows[keep].tobytes())
    return b"".join(out).decode("ascii")


def row_blocks(indptr: np.ndarray):
    """(start, stop) of each block of consecutive CSR rows holding at most
    _EXPORT_CHUNK entries (a longer row alone), in order from the first row,
    so that a pass over the blocks builds no whole-graph array."""
    entries = int(indptr[-1])
    start = 0
    while start < len(indptr) - 1:
        # the end in indptr's own dtype: searchsorted would cast the whole
        # of indptr to a wider one
        end = indptr.dtype.type(min(int(indptr[start]) + _EXPORT_CHUNK, entries))
        stop = max(int(np.searchsorted(indptr, end, "right")) - 1, start + 1)
        yield start, stop
        start = stop


def _edge_blocks(g: SimpleGraph, texts: tuple[str, str, str]):
    """The _text_rows text of g's canonical edges, one str per row block."""
    for start, stop in row_blocks(g.indptr):
        yield _text_rows(g.edge_arrays(start, stop), texts)


def _label_blocks(space: StateSpace):
    """The DOT label rows of space's states, one str per block of
    _EXPORT_CHUNK states, each state written from its digit columns."""
    if isinstance(space, ResidueSpace):  # a residue as its integer
        texts = ("  ", ' [label="', '"];\n')
    else:  # a digit tuple as Python prints it: (a, b, c), or (a,)
        k = len(space.places)
        texts = ("  ", ' [label="(', *[", "] * (k - 1), (",)" if k == 1 else ")") + '"];\n')
    for start in range(0, space.size, _EXPORT_CHUNK):
        index = np.arange(start, min(start + _EXPORT_CHUNK, space.size), dtype=np.int64)
        yield _text_rows((index, *space.digits(index)), texts)


def export_edge_list(g: SimpleGraph) -> str:
    """One line per edge "u v" with u < v, ascending; deterministic."""
    return "".join(_edge_blocks(g, ("", " ", "\n")))


def export_dot(g: SimpleGraph, space: StateSpace | None = None) -> str:
    """Undirected DOT document with edges in canonical order; given the
    space of g's vertices, each vertex first gets a row labelled with its
    state.  Label and edge rows alike go through _text_rows, block by
    block, so no per-state Python object is built."""
    parts = ["graph G {\n"]
    if space is not None:
        if space.size != g.vertex_count:
            raise ValueError(f"{space.spec()} has {space.size} states, not {g.vertex_count}")
        parts += _label_blocks(space)
    parts += _edge_blocks(g, ("  ", " -- ", ";\n"))
    parts.append("}\n")
    return "".join(parts)
