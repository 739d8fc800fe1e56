"""Graph statistics: components, diameter, characteristic path length,
clustering, triangles, Euler characteristic, degrees.

Path statistics are computed over the largest component.  All-pairs BFS is
exact up to 2^16 vertices; above that a seeded sample of 2048 sources is
used and the sample size is recorded in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components
from scipy.sparse.csgraph import dijkstra as _bfs

from . import rng
from .graphs import SimpleGraph

EXACT_BFS_LIMIT = 1 << 16
SAMPLE_SOURCES = 2048
# vertices per block-diagonal matrix in component_counts: large enough that
# scipy's per-call cost is shared by many small graphs, small enough that a
# sweep's working set stays a few MB
_CHUNK_VERTICES = 1 << 16


@dataclass(frozen=True)
class StatsReport:
    vertices: int
    edges: int
    components: int
    component_sizes: tuple[int, ...]
    diameter: int
    mu: float | None
    nu_local: float
    nu_transitivity: float
    lam: float | None
    triangles: int
    euler_char: int
    mean_degree: float
    degree_histogram: tuple[int, ...]
    sampled_sources: int | None = None

    def to_json(self) -> str:
        doc = {
            "vertices": self.vertices,
            "edges": self.edges,
            "components": self.components,
            "diameter": self.diameter,
            "mu": self.mu,
            "nu_local": self.nu_local,
            "nu_transitivity": self.nu_transitivity,
            "lambda": self.lam,
            "triangles": self.triangles,
            "euler_char": self.euler_char,
            "mean_degree": self.mean_degree,
            "sampled_sources": self.sampled_sources,
        }
        return json.dumps(doc, indent=2) + "\n"


def _as_sparse(g: SimpleGraph) -> csr_matrix:
    data = np.ones(len(g.indices), dtype=np.int8)
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
    _CHUNK_VERTICES vertices, one scipy call per matrix.  Nothing is
    canonicalised: a missing image becomes a self-loop and parallel images
    stay, neither of which changes a component count, so every vertex has
    one entry per map and the stacked CSR needs no sort.
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
    vertex = np.arange(total, dtype=np.int64)
    cols = np.empty((total, maps), dtype=np.int32)
    for k in range(maps):
        img = np.concatenate([tables[k] for tables in chunk])
        cols[:, k] = np.where(img >= 0, img + offset, vertex)
    indptr = np.arange(0, maps * total + 1, maps)  # scipy keeps int32 if it fits
    data = np.ones(maps * total)  # float64, which scipy would otherwise sort to cast
    mat = csr_matrix((data, cols.ravel(), indptr), shape=(total, total))
    count, labels = _scipy_components(mat, directed=False)
    owner = np.empty(count, dtype=np.int64)
    owner[labels] = block  # no component spans two blocks
    return np.bincount(owner, minlength=len(chunk))


def is_connected(g: SimpleGraph) -> bool:
    return components(g)[0] == 1


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
        pick = rng.shuffled_range(m, seed)[:SAMPLE_SOURCES]
        sources = member[np.sort(np.array(pick))]
        sampled = len(sources)
    sparse = _as_sparse(g)
    in_component = np.zeros(g.vertex_count, dtype=bool)
    in_component[member] = True
    diameter = 0
    total = 0
    pairs = 0
    block = 512
    for start in range(0, len(sources), block):
        batch = sources[start : start + block]
        dist = _bfs(sparse, indices=batch, unweighted=True, directed=False)
        dist = np.atleast_2d(dist)[:, in_component]
        idist = dist.astype(np.int64)  # finite inside the component
        diameter = max(diameter, int(idist.max()))
        total += int(idist.sum())
        pairs += idist.shape[0] * (m - 1)
    mu = total / pairs
    return diameter, mu, sampled


def diameter(g: SimpleGraph) -> int:
    """Maximum eccentricity over the largest component."""
    return _distance_scan(g)[0]


def mean_path_length(g: SimpleGraph) -> float | None:
    """Mean distance over distinct vertex pairs of the largest component;
    None when that component is a single vertex."""
    return _distance_scan(g)[1]


def _edge_triangle_counts(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge common-neighbor counts for canonical edges (u, v)."""
    us, vs = g.edge_arrays()
    common = np.empty(len(us), dtype=np.int64)
    for i in range(len(us)):
        common[i] = np.intersect1d(
            g.neighbor_array(us[i]), g.neighbor_array(vs[i]), assume_unique=True
        ).size
    return us, vs, common


def triangle_count(g: SimpleGraph) -> int:
    """Number of 3-cliques, each counted once."""
    _, _, common = _edge_triangle_counts(g)
    return int(common.sum()) // 3


def _clustering_core(g: SimpleGraph, commons=None) -> tuple[float, float, int]:
    """(nu_local, nu_transitivity, triangles) from one common-neighbor pass."""
    if g.vertex_count == 0:
        return 0.0, 0.0, 0
    us, vs, common = commons if commons is not None else _edge_triangle_counts(g)
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
    adj = [set(g.neighbor_array(v).tolist()) for v in range(g.vertex_count)]
    us, vs, _ = _edge_triangle_counts(g)
    for u, v in zip(us, vs):
        shared = sorted(adj[u] & adj[v])
        for i, w in enumerate(shared):
            for x in shared[i + 1 :]:
                if x in adj[w]:
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
    sizes = tuple(int(c) for c in sorted(np.bincount(labels, minlength=count), reverse=True))
    diam, mu, sampled = _distance_scan(g, seed=sample_seed, labels=labels)
    nu_local, nu_trans, triangles = _clustering_core(g)
    mean_deg, hist = degree_stats(g)
    nu = nu_local if nu_estimator == "local" else nu_trans
    lam = lambda_coefficient(mu, nu) if mu is not None else None
    return StatsReport(
        vertices=g.vertex_count,
        edges=g.edge_count,
        components=count,
        component_sizes=sizes,
        diameter=diam,
        mu=mu,
        nu_local=nu_local,
        nu_transitivity=nu_trans,
        lam=lam,
        triangles=triangles,
        euler_char=g.vertex_count - g.edge_count + triangles,
        mean_degree=mean_deg,
        degree_histogram=hist,
        sampled_sources=sampled,
    )
