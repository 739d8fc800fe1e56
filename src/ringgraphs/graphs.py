"""Build the finite simple graph induced by a map family.

Distinct states x, y are joined iff some map sends one to the other.
Self-loops are dropped and parallel images deduplicated, so the result is a
plain undirected simple graph in compressed sorted-adjacency form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .maps import MapFamily, image_table
from .spaces import SIZE_CAP, StateSpace


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; indptr/indices form a CSR adjacency whose
    neighbor lists are sorted."""

    vertex_count: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    edge_count: int

    def neighbor_array(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edges (u, v) with u < v, sorted ascending."""
        src = np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.degrees())
        mask = src < self.indices
        return src[mask], self.indices[mask]


@dataclass(frozen=True)
class GraphSpec:
    """A space, the family acting on it, and a textual provenance record."""

    space: StateSpace
    family: MapFamily
    provenance: str

    def __post_init__(self):
        if self.family.space != self.space:
            raise ValueError("family acts on a different space")

    @classmethod
    def of(cls, family: MapFamily) -> "GraphSpec":
        return cls(family.space, family, family.provenance())


def graph_from_edges(vertex_count: int, us, vs) -> SimpleGraph:
    """Canonicalize raw endpoint arrays (loops dropped, duplicates merged)
    into a SimpleGraph.

    One COO->CSR conversion of the pairs and their reverses: scipy places
    the entries by a counting sort on the row, then sorts each row and
    merges its duplicates, all in C."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    for ends in (us, vs):
        if ends.size and not (ends.min() >= 0 and ends.max() < vertex_count):
            bad = ends[(ends < 0) | (ends >= vertex_count)][0]
            raise ValueError(f"endpoint {bad} outside [0, {vertex_count})")
    keep = us != vs
    us, vs = us[keep], vs[keep]
    # the index dtype scipy picks for this shape; handing it int64 pairs
    # would make it copy them down to int32 itself
    index = np.int32 if vertex_count <= np.iinfo(np.int32).max else np.int64
    rows = np.concatenate([us, vs], dtype=index, casting="same_kind")
    cols = np.concatenate([vs, us], dtype=index, casting="same_kind")
    del us, vs, keep  # free the int64 copies before scipy allocates
    adjacency = csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)),
        shape=(vertex_count, vertex_count),
    )
    adjacency.sum_duplicates()
    return SimpleGraph(
        vertex_count,
        adjacency.indptr.astype(np.int64),
        adjacency.indices.astype(np.int64),
        adjacency.nnz // 2,
    )


def image_tables(family: MapFamily) -> list[np.ndarray]:
    """One image table per map of the family, -1 where there is no image."""
    return [image_table(m, family.space) for m in family.maps]


def build_graph(spec: GraphSpec | MapFamily) -> SimpleGraph:
    """Vertex i ~ vertex j (i != j) iff some map sends state i to state j or
    state j to state i."""
    family = spec.family if isinstance(spec, GraphSpec) else spec
    space = family.space
    if space.size > SIZE_CAP:
        raise ValueError(f"space {space.spec()} above the {SIZE_CAP}-state cap")
    src = np.arange(space.size, dtype=np.int64)
    sources = []
    targets = []
    for m in family.maps:
        img = image_table(m, space)
        ok = img >= 0
        sources.append(src[ok])
        targets.append(img[ok])
    return graph_from_edges(
        space.size, np.concatenate(sources), np.concatenate(targets)
    )


def neighbors(g: SimpleGraph, v: int) -> list[int]:
    """Sorted, duplicate-free neighbor list; never contains v."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    return [int(x) for x in g.neighbor_array(v)]


# edges per ASCII matrix in _edge_lines; bounds its memory at a few MB
_EXPORT_CHUNK = 1 << 16


def _edge_lines(
    us: np.ndarray, vs: np.ndarray, before: str, between: str, after: str
) -> str:
    """before + u + between + v + after for each edge, concatenated.

    Each chunk of edges becomes one (edges, width) uint8 matrix of ASCII
    rows copied from a template line, with u and v written in as
    fixed-width decimal digits whose leading zeros a mask drops when the
    rows are joined."""
    if len(us) == 0:
        return ""
    width = len(str(int(max(us.max(), vs.max()))))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    lead = np.where(powers == 1, 0, powers)  # the units digit is always kept
    pad = "0" * width
    line = f"{before}{pad}{between}{pad}{after}"
    template = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    u_cols = slice(len(before), len(before) + width)
    v_cols = slice(u_cols.stop + len(between), u_cols.stop + len(between) + width)
    out = []
    for start in range(0, len(us), _EXPORT_CHUNK):
        chunk = slice(start, start + _EXPORT_CHUNK)
        rows = np.tile(template, (len(us[chunk]), 1))
        keep = np.ones(rows.shape, dtype=bool)
        for cols, ends in ((u_cols, us[chunk, None]), (v_cols, vs[chunk, None])):
            rows[:, cols] = ends // powers % 10 + ord("0")
            keep[:, cols] = ends >= lead
        out.append(rows[keep].tobytes())
    return b"".join(out).decode("ascii")


def export_edge_list(g: SimpleGraph) -> str:
    """One line per edge "u v" with u < v, ascending; deterministic."""
    return _edge_lines(*g.edge_arrays(), "", " ", "\n")


def export_dot(g: SimpleGraph, labels: list[str] | None = None) -> str:
    """Undirected DOT document with edges in canonical order."""
    lines = ["graph G {"]
    if labels is not None:
        if len(labels) != g.vertex_count:
            raise ValueError("need one label per vertex")
        for v, text in enumerate(labels):
            escaped = str(text).replace('"', '\\"')
            lines.append(f'  {v} [label="{escaped}"];')
    edges = _edge_lines(*g.edge_arrays(), "  ", " -- ", ";\n")
    return "\n".join(lines) + "\n" + edges + "}\n"
