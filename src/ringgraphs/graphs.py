"""Build the finite simple graph induced by a map family.

Distinct states x, y are joined iff some map sends one to the other.
Self-loops are dropped and parallel images deduplicated, so the result is a
plain undirected simple graph in compressed sorted-adjacency form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    into a SimpleGraph."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    keys = np.unique(lo * vertex_count + hi)
    eu = keys // vertex_count
    ev = keys % vertex_count
    both_src = np.concatenate([eu, ev])
    both_dst = np.concatenate([ev, eu])
    order = np.argsort(both_src * vertex_count + both_dst)
    indices = both_dst[order]
    counts = np.bincount(both_src, minlength=vertex_count)
    indptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SimpleGraph(vertex_count, indptr, indices, len(keys))


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


def export_edge_list(g: SimpleGraph) -> str:
    """One line per edge "u v" with u < v, ascending; deterministic."""
    us, vs = g.edge_arrays()
    return "".join(f"{u} {v}\n" for u, v in zip(us, vs))


def export_dot(g: SimpleGraph, labels: list[str] | None = None) -> str:
    """Undirected DOT document with edges in canonical order."""
    lines = ["graph G {"]
    if labels is not None:
        if len(labels) != g.vertex_count:
            raise ValueError("need one label per vertex")
        for v, text in enumerate(labels):
            escaped = str(text).replace('"', '\\"')
            lines.append(f'  {v} [label="{escaped}"];')
    us, vs = g.edge_arrays()
    for u, v in zip(us, vs):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
