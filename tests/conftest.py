"""Shared brute-force oracles, all independent of the library internals they
are used to check."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import deque
from itertools import combinations

import numpy as np
import pytest

import ringgraphs
from ringgraphs import maps
from ringgraphs.graphs import SimpleGraph

from oracles import apply, enumerate_states, index_of, neighbor_array


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_divisor_sum_proper(x: int) -> int:
    return sum(d for d in range(1, x) if x % d == 0)


def naive_order(a: int, p: int) -> int:
    v, k = a % p, 1
    while v != 1:
        v = v * a % p
        k += 1
    return k


def naive_smooth_members(primes: set[int], limit: int) -> list[int]:
    out = []
    for n in range(1, limit + 1):
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m == 1:
            out.append(n)
    return out


def brute_edges(family: maps.MapFamily) -> set[tuple[int, int]]:
    """Edge set via single-state application over the full enumeration."""
    edges = set()
    for s in enumerate_states(family.space):
        i = index_of(family.space, s)
        for m in family.maps:
            t = apply(m, s)
            if t is None:
                continue
            j = index_of(family.space, t)
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return edges


def sorted_csr(vertex_count: int, us, vs):
    """(indptr, indices, edge_count) by sorting the keys lo*V+hi twice: the
    reference for graph_from_edges."""
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
    return indptr, indices, len(keys)


def loop_edge_list(g: SimpleGraph) -> str:
    """One f-string per edge: the reference for export_edge_list."""
    us, vs = g.edge_arrays()
    return "".join(f"{u} {v}\n" for u, v in zip(us, vs))


def loop_dot(g: SimpleGraph, labels: list[str] | None = None) -> str:
    """One f-string per label and per edge: the reference for export_dot."""
    lines = ["graph G {"]
    if labels is not None:
        for v, text in enumerate(labels):
            lines.append(f'  {v} [label="{text}"];')
    us, vs = g.edge_arrays()
    for u, v in zip(us, vs):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str, what: str = "") -> None:
    """got == want exactly.  A mismatch reports the first line that differs,
    where a plain assert would have pytest diff whole documents of a few
    MB, which takes minutes."""
    if got == want:
        return
    ours, theirs = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            raise AssertionError(f"{what}: line {i + 1} is {a!r}, expected {b!r}")
    raise AssertionError(f"{what}: {len(ours)} lines, expected {len(theirs)}")


def graph_edges(g: SimpleGraph) -> set[tuple[int, int]]:
    us, vs = g.edge_arrays()
    return {(int(u), int(v)) for u, v in zip(us, vs)}


def brute_triangles(g: SimpleGraph) -> int:
    adj = [set(neighbor_array(g, v).tolist()) for v in range(g.vertex_count)]
    count = 0
    for u, v, w in combinations(range(g.vertex_count), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            count += 1
    return count


def loop_vertex_triangle_counts(g: SimpleGraph) -> np.ndarray:
    """Number of triangles at each vertex, the edges among its neighbours:
    one intersect1d per neighbour, which sees each such edge from both its
    ends.  The reference for the vectorised wedge kernel."""
    at = np.zeros(g.vertex_count, dtype=np.int64)
    for v in range(g.vertex_count):
        nbr = neighbor_array(g, v)
        for u in nbr:
            at[v] += np.intersect1d(nbr, neighbor_array(g, u), assume_unique=True).size
    return at // 2


def brute_has_k4(g: SimpleGraph) -> bool:
    """Some vertex u with three pairwise adjacent higher neighbours."""
    adj = [set(neighbor_array(g, v).tolist()) for v in range(g.vertex_count)]
    for u in range(g.vertex_count):
        higher = sorted(x for x in adj[u] if x > u)
        for v, w, x in combinations(higher, 3):
            if w in adj[v] and x in adj[v] and x in adj[w]:
                return True
    return False


def bfs_distances(g: SimpleGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbor_array(g, u):
            v = int(v)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports this ringgraphs, with
    one BLAS thread so that thread stacks do not count against an
    address-space limit."""
    package_root = os.path.dirname(os.path.dirname(ringgraphs.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)


def run_under_rlimit(code: str, rlimit: str, limit: int) -> str:
    """Stdout of `python -c code` in a child (see child_env) whose `resource`
    limit named `rlimit` (RLIMIT_AS in bytes, RLIMIT_CPU in seconds) is
    `limit`, set in the child only."""

    def set_limit():
        import resource

        resource.setrlimit(getattr(resource, rlimit), (limit, limit))

    run = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        preexec_fn=set_limit,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture(scope="session")
def triangle_graph():
    from ringgraphs.graphs import graph_from_edges

    return graph_from_edges(3, [0, 0, 1], [1, 2, 2])
