import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ringgraphs import graphs, metrics, survey
from ringgraphs.graphs import build_graph, graph_from_edges, image_tables
from ringgraphs.maps import (
    Affine,
    CARule,
    MapFamily,
    MatQuad,
    PowerPlus,
    family_from_texts,
    preset,
)
from ringgraphs.spaces import (
    BitVec,
    Mat2,
    UpperTri2,
    Zn,
    ZnFromTwo,
    ZnNonzero,
    ZnUnits,
    parse_space,
)

from conftest import (
    bfs_distances,
    brute_clique_counts,
    brute_has_k4,
    brute_triangles,
    loop_vertex_triangle_counts,
    run_under_rlimit,
)
from oracles import UnionFind, neighbor_array, shuffled_range, twin_classes


def path3():
    return graph_from_edges(3, [0, 1], [1, 2])


def star4():
    return graph_from_edges(4, [0, 0, 0], [1, 2, 3])


def test_component_examples(triangle_graph):
    g16 = build_graph(MapFamily((PowerPlus(2, 0),), Zn(16)))
    assert metrics.components(g16)[0] == 2  # evens and odds
    g8 = build_graph(MapFamily((Affine(2, 0),), Zn(8)))
    assert metrics.components(g8)[0] == 1
    g11 = build_graph(MapFamily((PowerPlus(5, 0),), Zn(11)))
    assert metrics.components(g11)[0] == 3


def test_diameter_examples(triangle_graph):
    assert metrics._distance_scan(triangle_graph)[0] == 1
    assert metrics._distance_scan(path3())[0] == 2


def test_mean_path_length_examples(triangle_graph):
    assert metrics._distance_scan(triangle_graph)[1] == 1.0
    assert metrics._distance_scan(path3())[1] == pytest.approx(4 / 3)
    lonely = graph_from_edges(1, [], [])
    assert metrics._distance_scan(lonely)[1] is None


def test_clustering_examples(triangle_graph):
    assert metrics.clustering(triangle_graph) == (1.0, 1.0)
    assert metrics.clustering(star4()) == (0.0, 0.0)


def test_lambda_coefficient():
    assert metrics.lambda_coefficient(1.0, 1 / math.e) == pytest.approx(1.0)
    assert metrics.lambda_coefficient(5.8, 0.00074) == pytest.approx(0.8045, abs=5e-4)
    assert metrics.lambda_coefficient(2.0, 0.0) is None
    assert metrics.lambda_coefficient(2.0, 1.0) is None
    assert metrics.lambda_coefficient(2.0, 1.5) is None


def test_triangle_examples():
    assert metrics.triangle_count(build_graph(preset("collatz", 113))) == 4
    assert metrics.triangle_count(build_graph(preset("collatz", 13))) == 6
    g127 = build_graph(MapFamily((PowerPlus(2, 0),), Zn(127)))
    assert metrics.triangle_count(g127) == 2


def test_euler_characteristic_examples(triangle_graph):
    single_edge = graph_from_edges(2, [0], [1])
    assert metrics.euler_characteristic(single_edge) == 1
    assert metrics.euler_characteristic(triangle_graph) == 1


def test_k4_free(triangle_graph):
    assert metrics.k4_free(triangle_graph)
    k4 = graph_from_edges(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
    assert not metrics.k4_free(k4)
    g127 = build_graph(MapFamily((PowerPlus(2, 0),), Zn(127)))
    assert metrics.k4_free(g127)


def test_degree_stats(triangle_graph):
    mean, hist = metrics.degree_stats(triangle_graph)
    assert mean == 2.0
    assert hist == (0, 0, 3)
    g = build_graph(preset("collatz", 100))
    mean, _ = metrics.degree_stats(g)
    assert mean <= 4.0  # two maps contribute at most one image each


def test_full_report_k3(triangle_graph):
    rep = metrics.full_report(triangle_graph)
    assert rep.euler_char == 1
    assert rep.mu == 1.0
    assert rep.nu_local == 1.0
    assert rep.lam is None  # nu = 1 leaves lambda undefined
    assert rep.components == 1
    assert rep.sampled_sources is None


def test_full_report_two_disjoint_edges():
    g = graph_from_edges(4, [0, 2], [1, 3])
    rep = metrics.full_report(g)
    assert rep.components == 2
    assert rep.diameter == 1
    assert rep.mu == 1.0


def test_report_json_keys(triangle_graph):
    doc = json.loads(metrics.full_report(triangle_graph).to_json())
    assert list(doc) == [
        "vertices", "edges", "components", "diameter", "mu", "nu_local",
        "nu_transitivity", "lambda", "triangles", "euler_char", "mean_degree",
        "sampled_sources",
    ]
    assert doc["lambda"] is None
    assert doc["euler_char"] == 1


def test_transitivity_bound_and_euler_identity():
    for fam in (preset("collatz", 60), preset("fermat", 47), preset("dickson+", 90)):
        g = build_graph(fam)
        tri = metrics.triangle_count(g)
        deg = g.degrees().astype(np.int64)
        triples = int((deg * (deg - 1) // 2).sum())
        assert 3 * tri <= triples
        us, vs = g.edge_arrays()
        assert metrics.euler_characteristic(g) == g.vertex_count - len(us) + tri


def test_mu_at_most_diameter():
    for fam in (preset("collatz", 101), preset("pierpont", 37)):
        g = build_graph(fam)
        diameter, mu, _ = metrics._distance_scan(g)
        assert mu <= diameter


def test_components_match_union_find():
    # dual oracle: scipy-backed labels vs hand-rolled union-find
    for n in (13, 59, 100, 257, 500):
        for name in ("collatz", "fermat", "dickson"):
            g = build_graph(preset(name, n))
            count, labels = metrics.components(g)
            uf = UnionFind(g.vertex_count)
            us, vs = g.edge_arrays()
            for u, v in zip(us, vs):
                uf.union(int(u), int(v))
            assert uf.count == count
            roots = uf.labels()
            pairing = {}
            for lab, root in zip(labels, roots):
                assert pairing.setdefault(int(lab), root) == root


def test_triangles_match_brute_force():
    for fam in (
        preset("collatz", 97),
        preset("fermat", 127),
        preset("pierpont", 50),
        preset("dickson+", 80),
    ):
        g = build_graph(fam)
        assert g.vertex_count <= 200
        assert metrics.triangle_count(g) == brute_triangles(g)


def test_distances_match_bfs_oracle():
    g = build_graph(preset("collatz", 61))
    dists = [bfs_distances(g, s) for s in range(g.vertex_count)]
    diam = max(max(d.values()) for d in dists)
    total = sum(sum(d.values()) for d in dists)
    pairs = sum(len(d) - 1 for d in dists)
    diameter, mu, _ = metrics._distance_scan(g)
    assert diameter == diam
    assert mu == pytest.approx(total / pairs)


def test_cycle_graphs_have_uniform_eccentricity():
    for n in (5, 8, 13):
        g = build_graph(MapFamily((Affine(1, 1),), Zn(n)))
        eccs = {max(bfs_distances(g, s).values()) for s in range(n)}
        assert len(eccs) == 1
        assert metrics._distance_scan(g)[0] == n // 2


def test_empty_graph_edge_cases():
    g = graph_from_edges(1, [], [])
    rep = metrics.full_report(g)
    assert rep.components == 1
    assert rep.diameter == 0
    assert rep.mu is None
    assert rep.triangles == 0


def test_sampled_distance_scan(monkeypatch):
    # force the huge-graph sampling path on a small connected graph
    g = build_graph(preset("collatz", 300))
    exact = metrics.full_report(g)
    monkeypatch.setattr(metrics, "EXACT_BFS_LIMIT", 64)
    monkeypatch.setattr(metrics, "SAMPLE_SOURCES", 48)
    sampled = metrics.full_report(g, sample_seed=5)
    assert sampled.sampled_sources == 48
    assert sampled.diameter <= exact.diameter  # sampled max is a lower bound
    assert abs(sampled.mu - exact.mu) < 0.5
    again = metrics.full_report(g, sample_seed=5)
    assert again.mu == sampled.mu and again.diameter == sampled.diameter
    other = metrics.full_report(g, sample_seed=6)
    assert other.sampled_sources == 48


# -- bit-parallel distance kernel against scipy's dijkstra ---------------------


def dijkstra_scan(g, sources):
    """(largest eccentricity, mu) of the given sources over the largest
    component, from scipy's dijkstra."""
    mat = csr_matrix(
        (np.ones(len(g.indices)), g.indices, g.indptr),
        shape=(g.vertex_count, g.vertex_count),
    )
    _, labels = metrics.components(g)
    member = np.nonzero(labels == np.argmax(np.bincount(labels)))[0]
    dist = dijkstra(mat, indices=sources, unweighted=True, directed=False)
    dist = np.atleast_2d(dist)[:, member].astype(np.int64)
    return int(dist.max()), int(dist.sum()) / (len(sources) * (len(member) - 1))


def scattered_graph(size: int, seed: int):
    """A random connected graph on `size` vertices, a smaller path beside it
    and isolated vertices, with every vertex id shuffled."""
    r = np.random.default_rng(seed)
    us = list(range(1, size)) + r.integers(0, size, size // 2).tolist()
    vs = [int(r.integers(0, v)) for v in range(1, size)]  # a random tree
    vs += r.integers(0, size, size // 2).tolist()
    second = size // 2
    us += range(size, size + second - 1)
    vs += range(size + 1, size + second)
    n = size + second + 5
    perm = r.permutation(n)
    return graph_from_edges(n, perm[us], perm[vs])


def test_distance_kernel_skips_isolated_vertices():
    # isolated 0, 3 and 7 around the path 1-2-4-5-6
    g = graph_from_edges(8, [1, 2, 4, 5], [2, 4, 5, 6])
    assert metrics._distance_scan(g) == (4, 2.0, None)
    assert metrics._distance_scan(g)[:2] == dijkstra_scan(g, [1, 2, 4, 5, 6])


def one_word_passes(monkeypatch):
    """Distance-scan passes of 64 sources each."""
    monkeypatch.setattr(metrics, "_PASS_BYTES", 0)
    monkeypatch.setattr(metrics, "_PASS_WORDS", 1)


def one_pass(monkeypatch):
    """One distance-scan pass over every source."""
    monkeypatch.setattr(metrics, "_PASS_BYTES", 1 << 62)


@pytest.mark.parametrize("size", [2, 63, 64, 65, 511, 512, 513, 1000])
def test_distance_kernel_matches_dijkstra_on_every_source(monkeypatch, size):
    # the passes of the width rule, then passes of one word each
    g = scattered_graph(size, seed=size)
    count, labels = metrics.components(g)
    assert count > 1 and np.bincount(labels).max() == size < g.vertex_count
    member = metrics._largest_component(g, labels)
    expect = dijkstra_scan(g, member)
    for _ in range(2):
        diameter, mu, sampled = metrics._distance_scan(g, labels=labels)
        assert sampled is None
        assert (diameter, mu) == expect
        one_word_passes(monkeypatch)


@pytest.mark.parametrize("sources", [1, 63, 64, 65, 511, 512, 513, 1000])
def test_sampled_distance_kernel_matches_dijkstra(monkeypatch, sources):
    monkeypatch.setattr(metrics, "EXACT_BFS_LIMIT", 64)
    monkeypatch.setattr(metrics, "SAMPLE_SOURCES", sources)
    g = scattered_graph(1200, seed=sources)
    member = metrics._largest_component(g)
    pick = shuffled_range(len(member), 3)[:sources]
    expect = dijkstra_scan(g, member[np.sort(np.array(pick))])
    for _ in range(2):
        diameter, mu, sampled = metrics._distance_scan(g, seed=3)
        assert sampled == sources
        assert (diameter, mu) == expect
        one_word_passes(monkeypatch)


@pytest.mark.parametrize(
    "space, texts, sampled",
    [
        ("zn:4000", "x^2+1,x^2+2", False),  # 1,101 classes, 14 source weights
        ("zn:3000", "2x,3x+1", False),  # no twins
        ("zn:4000", "x^2+1,x^2+2", True),
    ],
)
def test_full_report_does_not_depend_on_pass_width(monkeypatch, space, texts, sampled):
    # the integer distance total and the largest eccentricity do not depend
    # on how the sources are split into passes: the passes of the width
    # rule, of one word each and one pass over every source agree byte for
    # byte
    if sampled:
        monkeypatch.setattr(metrics, "EXACT_BFS_LIMIT", 64)
    g = build_graph(family_from_texts(parse_space(space), texts))
    bfs_pass, passes = metrics._bfs_pass, []

    def counted(*args):
        passes[-1] += 1
        return bfs_pass(*args)

    monkeypatch.setattr(metrics, "_bfs_pass", counted)
    reports = []
    for force in (None, one_word_passes, one_pass):
        if force is not None:
            force(monkeypatch)
        passes.append(0)
        reports.append(metrics.full_report(g).to_json())
    assert reports[1] == reports[0] == reports[2]
    assert json.loads(reports[0])["sampled_sources"] == (2048 if sampled else None)
    assert passes[1] > 20 and passes[2] == 1 <= passes[0] < passes[1]


def test_weighted_count_matches_per_bit_count():
    # 12 runs of rows weighted up to 2^22 and the pad row Q of weight 0,
    # under 3 runs of words weighted up to 2048
    r = np.random.default_rng(11)
    row_weight = np.repeat(r.integers(1, 1 << 22, 12), r.integers(1, 30, 12))
    row_weight = np.append(row_weight, 0)
    word_weight = np.repeat(np.array([1, 7, 2048]), [2, 3, 1])
    top = np.iinfo(np.uint64).max
    shape = (len(row_weight), len(word_weight))
    bits = r.integers(0, top, shape, dtype=np.uint64, endpoint=True)
    bits &= r.integers(0, top, shape, dtype=np.uint64, endpoint=True)
    bits[-1] = 0
    expect = sum(
        int(row_weight[i]) * int(word_weight[j])
        for i, j in np.ndindex(shape)
        for b in range(64)
        if int(bits[i, j]) >> b & 1
    )
    found = np.empty(shape, dtype=np.uint8)
    assert metrics._weighted_count(bits, row_weight, word_weight, found) == expect
    # on a 1 MiB frontier of 2^16 rows, the count holds no array near its
    # size: einsum casts the popcounts a buffer at a time
    bits = np.full((1 << 16, 2), top, dtype=np.uint64)
    row_weight, word_weight = np.arange(1 << 16), np.array([1, 2])
    found = np.empty(bits.shape, dtype=np.uint8)
    tracemalloc.start()
    try:
        count = metrics._weighted_count(bits, row_weight, word_weight, found)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 3 * 64 * ((1 << 16) * ((1 << 16) - 1) // 2)
    assert peak < bits.nbytes // 4


def hub_graph(size: int, seed: int):
    """scattered_graph with two hubs in its largest component, joined to 40
    and to 17 more of its vertices: degrees past 16, in padded slabs."""
    g = scattered_graph(size, seed)
    member = metrics._largest_component(g)
    r = np.random.default_rng(seed)
    us, vs = g.edge_arrays()
    us, vs = [us], [vs]
    for hub, spokes in zip(member[:2], (40, 17)):
        vs.append(r.choice(member[member != hub], spokes, replace=False))
        us.append(np.full(spokes, hub))
    return graph_from_edges(g.vertex_count, np.concatenate(us), np.concatenate(vs))


def slab_width(degree: int) -> int:
    return degree if degree <= 16 else 1 << (degree - 1).bit_length()


def component_graph(g):
    """The largest component of g as a graph of its own, its vertices
    relabelled 0..m-1 in order."""
    member = metrics._largest_component(g)
    pos = np.full(g.vertex_count, -1)
    pos[member] = np.arange(len(member))
    us, vs = g.edge_arrays()
    inside = pos[us] >= 0
    return graph_from_edges(len(member), pos[us[inside]], pos[vs[inside]])


@pytest.mark.parametrize("entries", [1, 7, metrics._SLAB_ENTRIES])
def test_degree_slabs_hold_every_neighbour_list(monkeypatch, entries):
    monkeypatch.setattr(metrics, "_SLAB_ENTRIES", entries)
    g = component_graph(hub_graph(300, seed=1))
    m = g.vertex_count
    size = np.random.default_rng(1).integers(1, 4, m)
    rank, blocks = metrics._degree_slabs(g.indptr, g.indices, size)
    old = np.empty(m, dtype=np.int64)
    old[rank] = np.arange(m)
    assert sorted(old.tolist()) == list(range(m))
    rows = []
    for lo, hi, table in blocks:
        width = table.shape[0]
        assert table.shape == (width, hi - lo) and table.size <= max(entries, width)
        for r in range(lo, hi):
            nbrs = neighbor_array(g, old[r])
            assert width == slab_width(len(nbrs))
            column = table[:, r - lo]
            assert old[column[: len(nbrs)]].tolist() == nbrs.tolist()
            assert (column[len(nbrs) :] == m).all()
        rows += range(lo, hi)
    assert rows == list(range(m))
    widths = [table.shape[0] for _, _, table in blocks]
    assert widths == sorted(widths) and {32, 64} <= set(widths)
    # by new label, in order of width and then of size
    keys = [(slab_width(len(neighbor_array(g, v))), size[v]) for v in old]
    assert keys == sorted(keys)


@pytest.mark.parametrize("entries", [1, 7])
def test_distance_kernel_with_hubs_and_small_blocks(monkeypatch, entries):
    # every block a column or a few, past isolated vertices and a second
    # component; every source, then 1, 63, 65 and 513 sampled sources
    monkeypatch.setattr(metrics, "_SLAB_ENTRIES", entries)
    g = hub_graph(700, seed=entries)
    assert (g.degrees() == 0).any() and (g.degrees() > 16).sum() == 2
    member = metrics._largest_component(g)
    assert metrics._distance_scan(g)[:2] == dijkstra_scan(g, member)
    monkeypatch.setattr(metrics, "EXACT_BFS_LIMIT", 64)
    for sources in (1, 63, 65, 513):
        monkeypatch.setattr(metrics, "SAMPLE_SOURCES", sources)
        seeded = member[np.sort(shuffled_range(len(member), 3)[:sources])]
        diameter, mu, sampled = metrics._distance_scan(g, seed=3)
        assert sampled == sources
        assert (diameter, mu) == dijkstra_scan(g, seeded)


# -- twin classes: vertices with equal neighbour lists --------------------------


def complete_bipartite(a: int, b: int):
    return graph_from_edges(a + b, *zip(*[(u, a + v) for u in range(a) for v in range(b)]))


def planted_twins(size: int, seed: int):
    """scattered_graph with twins planted in its largest component: new
    vertices given the neighbour list of an old one, up to 30 at a time."""
    g = scattered_graph(size, seed)
    member = metrics._largest_component(g)
    r = np.random.default_rng(seed)
    us, vs = g.edge_arrays()
    us, vs = [us], [vs]
    n = g.vertex_count
    for v in r.choice(member, max(1, size // 8), replace=False).tolist():
        nbrs = neighbor_array(g, v)
        for _ in range(int(r.integers(1, 31))):
            us.append(np.full(len(nbrs), n))
            vs.append(nbrs)
            n += 1
    return graph_from_edges(n, np.concatenate(us), np.concatenate(vs))


def twin_cases():
    return [
        ("K3,5", complete_bipartite(3, 5)),
        ("star", star4()),
        ("path", path3()),
        ("zn:600", build_graph(family_from_texts(parse_space("zn:600"), "x^2+1,x^2+2"))),
        ("hubs", hub_graph(300, seed=1)),
    ] + [(f"planted{seed}", planted_twins(100 + 40 * seed, seed)) for seed in range(6)]


def kernel_twin_classes(g):
    """The classes of _representatives, as oracles.twin_classes gives them."""
    member = metrics._largest_component(g)
    cls, size, _, _ = metrics._representatives(g, member)
    groups = {}
    for v in member.tolist():
        groups.setdefault(int(cls[v]), []).append(v)
    assert sorted(groups) == list(range(len(size)))
    assert [len(groups[c]) for c in range(len(size))] == size.tolist()
    return sorted(groups.values())


def constant_hashes(g):
    return np.zeros(g.vertex_count, dtype=np.uint64)


def degree_hashes(g):
    return g.degrees().astype(np.uint64)


@pytest.mark.parametrize("hashes", [None, constant_hashes, degree_hashes])
def test_twin_classes_match_python_grouping(monkeypatch, hashes):
    # with the hash patched, rows of different lists collide: the
    # entry-by-entry check keeps each class inside one set of twins, and a
    # set of twins split over several classes changes no distance
    if hashes is not None:
        monkeypatch.setattr(metrics, "_row_hashes", hashes)
    split = False
    for name, g in twin_cases():
        member = metrics._largest_component(g)
        classes = twin_classes(g, member)
        kernel = kernel_twin_classes(g)
        if hashes is None:
            assert kernel == classes, name
        owner = {v: i for i, c in enumerate(classes) for v in c}
        assert all(len({owner[v] for v in c}) == 1 for c in kernel), name
        split |= len(kernel) > len(classes)
        assert metrics._distance_scan(g)[:2] == dijkstra_scan(g, member), name
    assert split == (hashes is not None)


def test_twin_classes_are_planted():
    # the cases hold classes of many sizes; on zn:600, 65 of the 195
    # classes have more than one member, such as the multiples of 60
    sizes = {len(c) for _, g in twin_cases() for c in kernel_twin_classes(g)}
    assert {1, 2, 3, 5} <= sizes and max(sizes) > 20
    classes = kernel_twin_classes(dict(twin_cases())["zn:600"])
    assert len(classes) == 195 and sum(len(c) > 1 for c in classes) == 65
    assert list(range(0, 600, 60)) in classes


def test_twins_are_two_apart():
    # the graph of representatives is one edge, of diameter 1
    g = complete_bipartite(3, 5)
    assert metrics._distance_scan(g) == (2, (2 * 3 * 2 + 2 * 5 * 4 + 2 * 15) / (8 * 7), None)
    assert metrics._distance_scan(g)[:2] == dijkstra_scan(g, range(8))
    assert metrics._distance_scan(star4()) == (2, (3 + 3 + 3 * 2 * 2) / (4 * 3), None)
    assert metrics._distance_scan(star4())[:2] == dijkstra_scan(star4(), range(4))
    # a and c are twins, b alone: mu = (1 + 1 + 2 + 1 + 2 + 1) / 6
    assert metrics._distance_scan(path3()) == (2, 4 / 3, None)
    assert metrics._distance_scan(path3())[:2] == dijkstra_scan(path3(), range(3))


@pytest.mark.parametrize("name", [name for name, _ in twin_cases()])
def test_distance_kernel_with_twins_matches_dijkstra(name):
    g = dict(twin_cases())[name]
    member = metrics._largest_component(g)
    assert metrics._distance_scan(g) == (*dijkstra_scan(g, member), None)


@pytest.mark.parametrize("sources", [1, 40, 64, 65, 513])
def test_sampled_twins_share_a_class(monkeypatch, sources):
    # sampled sources that fall in one class are one BFS source of that
    # weight, in a word of sources of that weight
    monkeypatch.setattr(metrics, "EXACT_BFS_LIMIT", 64)
    monkeypatch.setattr(metrics, "SAMPLE_SOURCES", sources)
    g = planted_twins(1500, seed=sources)
    member = metrics._largest_component(g)
    seeded = member[np.sort(shuffled_range(len(member), 3)[:sources])]
    diameter, mu, sampled = metrics._distance_scan(g, seed=3)
    assert sampled == sources
    assert (diameter, mu) == dijkstra_scan(g, seeded)
    if sources > 1:
        cls, _, _, _ = metrics._representatives(g, member)
        assert np.bincount(cls[seeded]).max() > 1


# full_report of x^2+1,x^2+2 on zn:2^17, the same before and after the
# bit-parallel distance kernel
PINNED_2_17 = {
    "vertices": 131072,
    "edges": 262141,
    "components": 1,
    "diameter": 14,
    "mu": 10.630735593834878,
    "nu_local": 0.001966422934746184,
    "nu_transitivity": 0.0002767427859606096,
    "lambda": 1.705956638941025,
    "triangles": 266,
    "euler_char": -130803,
    "mean_degree": 3.9999542236328125,
    "sampled_sources": 2048,
}


def test_full_report_at_2_17_fits_in_288_mib():
    # the sampled path on zn:2^17 under an address-space limit set on the
    # child only; the smallest limit that fits, to 1 MiB, is 218 MiB, and
    # 229 MiB with passes of 8 words and an allocated popcount each level
    code = (
        "from ringgraphs import graphs, maps, metrics, spaces\n"
        "space = spaces.parse_space('zn:131072')\n"
        "g = graphs.build_graph(maps.family_from_texts(space, 'x^2+1,x^2+2'))\n"
        "print(metrics.full_report(g).to_json(), end='')\n"
    )
    assert json.loads(run_under_rlimit(code, "RLIMIT_AS", 288 << 20)) == PINNED_2_17


def test_euler_characteristic_at_2_20_fits_in_352_mib():
    # build_graph and the triangle kernel on zn:2^20 under an address-space
    # limit set on the child only; the smallest limit that fits, to 1 MiB,
    # is 266 MiB, 274 MiB with each edge's lower end beside the keys, 290 MiB
    # with E-long per-edge triangle counts too, and about 80 MiB more with
    # an argsort orientation beside them
    code = (
        "from ringgraphs import graphs, maps, metrics, spaces\n"
        "space = spaces.parse_space('zn:1048576')\n"
        "g = graphs.build_graph(maps.family_from_texts(space, 'x^2+1,x^2+2'))\n"
        "print(metrics.euler_characteristic(g))\n"
    )
    assert run_under_rlimit(code, "RLIMIT_AS", 352 << 20) == "-1047539\n"


# -- wedge triangle and 4-clique kernels against loops ------------------------


def complete_graph(n: int):
    pairs = list(combinations(range(n), 2))
    return graph_from_edges(n, [u for u, _ in pairs], [v for _, v in pairs])


def wheel(rim: int):
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    spokes = list(range(1, rim + 1))
    return graph_from_edges(
        rim + 1, [0] * rim + spokes, spokes + spokes[1:] + [1]
    )


def from_texts(space: str, texts: str):
    return build_graph(family_from_texts(parse_space(space), texts))


def triangle_cases():
    yield from (build_graph(preset(name, n)) for name, n in (
        ("collatz", 97), ("collatz", 13), ("fermat", 127), ("pierpont", 50),
        ("dickson", 300), ("dickson+", 80),
    ))
    yield graph_from_edges(9, [0] * 8, range(1, 9))  # star
    yield from (complete_graph(n) for n in (1, 2, 3, 4, 5, 12))
    yield graph_from_edges(0, [], [])
    yield graph_from_edges(6, [], [])  # no edges
    yield from_texts("zn:10", "x+1")  # a cycle: edges, no triangles
    yield graph_from_edges(7, [0, 0, 0, 1, 1, 1, 2, 2, 2], [3, 4, 5, 4, 5, 6, 3, 5, 6])
    yield wheel(7)
    yield from_texts("zn:50", "x+1,x+2,x+3")


def edge_keys(g):
    us, vs = g.edge_arrays()
    return np.multiply(us, g.vertex_count, dtype=np.int64) + vs


def assert_triangle_kernel_matches_loop(g):
    keys, at = metrics._edge_triangle_counts(g)
    assert np.array_equal(keys, edge_keys(g))
    assert at.dtype == np.int64
    assert np.array_equal(at, loop_vertex_triangle_counts(g))


def test_triangle_kernel_matches_intersect_loop():
    for g in triangle_cases():
        assert_triangle_kernel_matches_loop(g)
    assert_triangle_kernel_matches_loop(from_texts("zn:4000", "x^2+1,x^2+2"))


def test_triangle_kernel_with_straddling_chunks(monkeypatch):
    monkeypatch.setattr(metrics, "_WEDGE_CHUNK", 3)
    for g in triangle_cases():
        assert_triangle_kernel_matches_loop(g)
    monkeypatch.setattr(metrics, "_WEDGE_CHUNK", 257)
    assert_triangle_kernel_matches_loop(from_texts("zn:4000", "x^2+1,x^2+2"))


def test_kernels_at_vertex_ids_above_2_16():
    # a K4 on 0..3 and a 6-rim wheel on 4..10, placed in order at vertex ids
    # above 2^16 of a 2^17-vertex graph: the keys u*V+v reach 2^34, so an
    # int32 product would wrap
    us = [0, 0, 0, 1, 1, 2] + [4] * 6 + list(range(5, 11))
    vs = [1, 2, 3, 2, 3, 3] + list(range(5, 11)) + list(range(6, 11)) + [5]
    ids = np.array([(1 << 16) + 1 + 5000 * i for i in range(10)] + [(1 << 17) - 1])
    for drop in (0, 1):  # 1 drops the K4 edge 0-1
        small = graph_from_edges(11, us[drop:], vs[drop:])
        g = graph_from_edges(1 << 17, ids[us[drop:]], ids[vs[drop:]])
        assert metrics.triangle_count(g) == brute_triangles(small) == 10 - 2 * drop
        assert metrics.k4_free(g) == (not brute_has_k4(small)) == bool(drop)
        keys, at = metrics._edge_triangle_counts(g)
        assert np.array_equal(keys, edge_keys(g))
        want = np.zeros(g.vertex_count, dtype=np.int64)
        want[ids] = loop_vertex_triangle_counts(small)
        assert np.array_equal(at, want)


def late_k4():
    """The only 4-clique, 0-4-5-6, sits after 0's out-edges to 1, 2, 3: each
    of 0..6 has degree 6 (leaves fill up the rest), so 0 ranks lowest."""
    us, vs = [0] * 6 + [4, 4, 5], [1, 2, 3, 4, 5, 6, 5, 6, 6]
    leaf = 7
    for v, count in ((1, 5), (2, 5), (3, 5), (4, 3), (5, 3), (6, 3)):
        us += [v] * count
        vs += range(leaf, leaf + count)
        leaf += count
    return graph_from_edges(leaf, us, vs)


def k4_cases():
    yield from (complete_graph(n) for n in (3, 4, 5, 8))
    yield late_k4()
    yield from (wheel(rim) for rim in (3, 4, 5, 8))  # the 3-rim wheel is K4
    for name in ("collatz", "fermat", "dickson"):
        yield from (build_graph(preset(name, n)) for n in (13, 60, 97, 127, 257))
    yield from_texts("zn:50", "x+1,x+2,x+3")  # every 4 consecutive residues
    yield from_texts("zn:50", "x+1,x+2")  # triangles, no 4-clique
    yield from_texts("zn:9", "2x,3x+1,x^2")
    yield from_texts("zn:50", "2x,3x+1,x^2")
    # the paper's squaring families, one 4-clique each
    yield from_texts("zn:13", "x^2+1,x^2+2")
    yield from_texts("zn:7", "x^2+2,x^2+3")
    yield graph_from_edges(0, [], [])


def test_k4_free_matches_brute_force(monkeypatch):
    cases = list(k4_cases())
    want = [not brute_has_k4(g) for g in cases]
    assert True in want and False in want
    assert [metrics.k4_free(g) for g in cases] == want
    monkeypatch.setattr(metrics, "_WEDGE_CHUNK", 2)
    assert [metrics.k4_free(g) for g in cases] == want


def extend_clique_counts(g):
    """The clique counts of g from _extend applied until it finds none,
    each clique checked to ascend in the oriented row of its lowest vertex."""
    n = g.vertex_count
    keys, ptr, head = metrics._oriented(g)
    counts, cliques = [n] if n else [], list(metrics._edges(ptr))
    while found := sum(len(x) for x, _ in cliques):
        counts.append(found)
        for x, at in cliques:
            assert (np.diff(at, axis=1) > 0).all()
            assert (ptr[x][:, None] <= at).all() and (at < ptr[x + 1][:, None]).all()
        cliques = list(metrics._extend(n, keys, ptr, head, cliques))
    return counts


@pytest.mark.parametrize("wedges, block", [(None, None), (2, None), (None, 1), (None, 3)])
def test_extend_clique_counts_match_set_oracle(monkeypatch, wedges, block):
    if wedges:
        monkeypatch.setattr(metrics, "_WEDGE_CHUNK", wedges)
    if block:
        monkeypatch.setattr(graphs, "_EXPORT_CHUNK", block)
    cases = [*triangle_cases(), *k4_cases(), *(complete_graph(n) for n in (5, 6, 7, 8))]
    got = [extend_clique_counts(g) for g in cases]
    assert got == [brute_clique_counts(g) for g in cases]
    assert max(map(len, got)) == 12  # K12 of triangle_cases
    assert [8, 28, 56, 70, 56, 28, 8, 1] in got


def test_clustering_matches_per_vertex_oracle():
    # nu_local and nu_transitivity from the intersect-loop counts, summed in
    # the test: the local mean is an fsum of t_v / C(d_v, 2) over V, and
    # transitivity 3T / sum of C(d, 2), both 0 where nothing is summed
    for g in [*triangle_cases(), *k4_cases()]:
        at = loop_vertex_triangle_counts(g).tolist()
        pairs = [math.comb(d, 2) for d in g.degrees().tolist()]
        n, triples = g.vertex_count, sum(pairs)
        local = math.fsum(t / p for t, p in zip(at, pairs) if p) / n if n else 0.0
        trans = sum(at) / triples if triples else 0.0
        assert metrics.clustering(g) == (local, trans)
        if n:
            report = metrics.full_report(g)
            assert report.nu_local == local and report.nu_transitivity == trans
            assert report.triangles == sum(at) // 3


def row_block_cases(block: int):
    """Graphs whose rows cut into kernel row blocks of `block` entries at
    the edge cases (for a small block only)."""
    # empty rows first, between and last, around a triangle and a K4
    yield graph_from_edges(
        16, [2, 2, 3, 7, 7, 7, 8, 8, 9], [3, 4, 4, 8, 9, 10, 9, 10, 10]
    )
    # a hub whose oriented row is longer than a block: each rim vertex has
    # leaves up to the hub's degree, so the hub ranks below all of them, and
    # the rim cycle closes a triangle with every pair of adjacent spokes
    rim = block + 2
    spokes = list(range(1, rim + 1))
    us, vs = [0] * rim + spokes, spokes + spokes[1:] + [1]
    leaf = rim + 1
    for v in spokes:
        us += [v] * (rim - 3)
        vs += range(leaf, leaf + rim - 3)
        leaf += rim - 3
    yield graph_from_edges(leaf, us, vs)
    # a triangle 0, far-1, far past a path: its closing edge far-1 - far is
    # filled in a later block than the out-edges of 0
    far = 3 * block + 4
    path = list(range(1, far - 2))
    yield graph_from_edges(
        far + 1, path + [0, 0, far - 1], [v + 1 for v in path] + [far - 1, far, far]
    )


@pytest.mark.parametrize("block", [1, 3])
def test_triangle_kernels_across_row_blocks(monkeypatch, block):
    monkeypatch.setattr(graphs, "_EXPORT_CHUNK", block)
    extra = list(row_block_cases(block))
    for g in extra:
        assert len(list(graphs.row_blocks(g.indptr))) > 1
        assert metrics.triangle_count(g) == brute_triangles(g) > 0
    triangle_graphs = [*triangle_cases(), *extra]
    k4_graphs = [*k4_cases(), *extra]
    want = [not brute_has_k4(g) for g in k4_graphs]
    assert True in want[-3:] and False in want[-3:]
    for wedges in (2, 3):
        monkeypatch.setattr(metrics, "_WEDGE_CHUNK", wedges)
        for g in triangle_graphs:
            assert_triangle_kernel_matches_loop(g)
        assert [metrics.k4_free(g) for g in k4_graphs] == want


def test_triangle_kernel_holds_no_whole_graph_temporary():
    # the outputs (the edge keys and the per-vertex counts), the oriented
    # heads and their row offsets come to 4.5 MiB here and the peak to
    # 9.7 MiB, 11.1 MiB with each edge's lower end beside them; an argsort
    # permutation (2 MiB) or E-long wedge offsets would pass the bound
    g = from_texts("zn:131072", "x^2+1,x^2+2")
    tracemalloc.start()
    try:
        metrics._edge_triangle_counts(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11.0 * (1 << 20)


# -- the sweep kernel: components, edges and triangles -----------------------


def union_find_count(tables) -> int:
    uf = UnionFind(len(tables[0]))
    for table in tables:
        for x, y in enumerate(table.tolist()):
            if y >= 0:
                uf.union(x, y)
    return uf.count


def assert_kernel_matches_both_routes(families):
    got = metrics.component_counts(iter(families))
    per_graph = [metrics.components(build_graph(f))[0] for f in families]
    oracle = [union_find_count(image_tables(f)) for f in families]
    assert got.tolist() == per_graph == oracle
    assert_edges_and_triangles_match(families)


def assert_edges_and_triangles_match(families):
    """edge_triangle_counts against build_graph's edge count, and against
    brute_triangles, or triangle_count on graphs too large for it."""
    edges, triangles = metrics.edge_triangle_counts(iter(families))
    built = [build_graph(f) for f in families]
    assert edges.tolist() == [g.edge_count for g in built]
    assert triangles.tolist() == [
        brute_triangles(g) if g.vertex_count <= 64 else metrics.triangle_count(g)
        for g in built
    ]


def test_component_counts_on_restricted_spaces():
    # escaping images (-1) on every restricted residue space
    families = []
    for n in range(3, 60):
        families.append(MapFamily((Affine(2, 0),), ZnNonzero(n)))
        families.append(MapFamily((PowerPlus(2, 0), PowerPlus(3, 0)), ZnFromTwo(n)))
        families.append(MapFamily((Affine(1, 1), PowerPlus(2, 0)), ZnUnits(n)))
    assert any((t < 0).any() for f in families for t in image_tables(f))
    for kind in (ZnNonzero, ZnFromTwo, ZnUnits):
        assert_kernel_matches_both_routes([f for f in families if isinstance(f.space, kind)])


def test_component_counts_on_size_one_and_empty_sweeps():
    # every family has at least one state; an empty sweep has no graph
    singles = [
        MapFamily((Affine(2, 0),), Zn(1)),
        MapFamily((Affine(2, 0),), ZnNonzero(2)),
        MapFamily((Affine(1, 1),), ZnUnits(1)),
        MapFamily((PowerPlus(2, 0),), Mat2(1)),
    ]
    assert_kernel_matches_both_routes(singles)
    assert metrics.components(graph_from_edges(0, [], []))[0] == 0
    assert metrics.component_counts([]).tolist() == []
    assert [c.tolist() for c in metrics.edge_triangle_counts([])] == [[], []]


def test_component_counts_matrix_rings():
    assert_kernel_matches_both_routes(
        [
            MapFamily((MatQuad((1, 2, 2, 4)),), Mat2(5)),
            MapFamily((PowerPlus(2, 0),), UpperTri2(5)),
            MapFamily((MatQuad((0, 0, 0, 0)),), Mat2(2)),
        ]
    )
    family = MapFamily((MatQuad((1, 2, 2, 4)),), Mat2(5))
    assert metrics.component_counts([family]).tolist() == [5]


def test_component_counts_straddle_chunks(monkeypatch):
    # sizes 1..80 against a 50-vertex chunk: graphs straddle block edges
    # and several are larger than a chunk
    monkeypatch.setattr(metrics, "_CHUNK_VERTICES", 50)
    assert_kernel_matches_both_routes([preset("collatz", n) for n in range(1, 81)])
    families = [MapFamily((Affine(2, 0),), ZnNonzero(n)) for n in range(2, 81)]
    assert_kernel_matches_both_routes(families)


@pytest.mark.parametrize("chunk", [1, 7, 50, None])
def test_sweep_buffer_grows_for_a_graph_larger_than_a_chunk(monkeypatch, chunk):
    # a graph larger than the chunk, between small ones: the reused chunk
    # buffer grows for it and then serves the small graphs after it, whose
    # rows must hold none of the large graph's images
    if chunk is not None:
        monkeypatch.setattr(metrics, "_CHUNK_VERTICES", chunk)
    large = metrics._CHUNK_VERTICES + 37
    for maps, kind in (
        ((Affine(2, 0), Affine(3, 1)), Zn),
        ((PowerPlus(2, 0), PowerPlus(3, 0)), ZnNonzero),
    ):
        ns = [5, 6, large, 3, 7, large + 20, 2, 9]
        families = [MapFamily(maps, kind(n)) for n in ns]
        got = metrics.component_counts(iter(families)).tolist()
        assert got == [metrics.components(build_graph(f))[0] for f in families]
        assert got == [union_find_count(image_tables(f)) for f in families]
        edges, triangles = metrics.edge_triangle_counts(iter(families))
        built = [build_graph(f) for f in families]
        assert edges.tolist() == [g.edge_count for g in built]
        assert triangles.tolist() == [metrics.triangle_count(g) for g in built]


def test_component_counts_at_the_real_chunk_size():
    chunk = metrics._CHUNK_VERTICES
    families = [
        MapFamily((PowerPlus(2, 0),), Zn(chunk - 5)),
        MapFamily((PowerPlus(2, 0),), Zn(11)),  # straddles the first block
        MapFamily((Affine(2, 0),), ZnNonzero(chunk + 1)),  # exactly a chunk
        MapFamily((PowerPlus(3, 0),), ZnNonzero(chunk + 1001)),
        MapFamily((Affine(2, 0),), Zn(12)),
    ]
    got = metrics.component_counts(iter(families))
    assert got.tolist() == [metrics.components(build_graph(f))[0] for f in families]
    assert_edges_and_triangles_match(families)


def test_component_counts_need_one_map_count_per_sweep():
    one = MapFamily((Affine(2, 0),), Zn(8))
    two = preset("collatz", 8)
    for families in ([one, two], [two, one]):
        for kernel in (metrics.component_counts, metrics.edge_triangle_counts):
            with pytest.raises(ValueError, match="same number of maps"):
                kernel(families)


def test_component_counts_do_not_depend_on_block_order():
    families = [MapFamily((PowerPlus(2, 0),), Zn(n)) for n in range(1, 200)]
    families += [MapFamily((Affine(2, 0),), ZnNonzero(n)) for n in range(2, 200)]
    base = metrics.component_counts(families)
    order = np.random.default_rng(7).permutation(len(families))
    shuffled = metrics.component_counts([families[i] for i in order])
    assert shuffled.tolist() == base[order].tolist()
    reverse = metrics.component_counts(families[::-1])
    assert reverse.tolist() == base[::-1].tolist()
    base = np.array(metrics.edge_triangle_counts(families))
    assert base[1].any()
    shuffled = metrics.edge_triangle_counts([families[i] for i in order])
    assert np.array(shuffled).tolist() == base[:, order].tolist()
    reverse = metrics.edge_triangle_counts(families[::-1])
    assert np.array(reverse).tolist() == base[:, ::-1].tolist()


@pytest.mark.parametrize("chunk", [1, 50, None])
def test_edge_triangle_counts_with_escaping_and_parallel_images(monkeypatch, chunk):
    # missing images (-1) on the nonzero residues and the units, and one
    # image given twice by 2x,2x, all of which build_graph drops or merges
    if chunk is not None:
        monkeypatch.setattr(metrics, "_CHUNK_VERTICES", chunk)
    for maps in ((Affine(2, 0), Affine(3, 1)), (PowerPlus(2, 0), PowerPlus(3, 0))):
        families = [MapFamily(maps, ZnNonzero(n)) for n in range(2, 60)]
        families += [MapFamily(maps, ZnUnits(n)) for n in range(1, 60)]
        assert any((t < 0).any() for f in families for t in image_tables(f))
        assert_edges_and_triangles_match(families)
    assert_edges_and_triangles_match(
        [MapFamily((Affine(2, 0), Affine(2, 0)), Zn(n)) for n in range(1, 60)]
    )


@pytest.mark.parametrize("width", [3, 4, 5])
def test_ca_pairs_match_per_pair_route(width):
    counts = np.array(survey.ca_mandelbrot(width).component_counts).reshape(256, 256)
    rng = np.random.default_rng(width)
    pairs = rng.integers(0, 256, size=(300, 2)).tolist() + [[0, 255], [255, 255]]
    for a, b in pairs:
        family = MapFamily((CARule(a), CARule(b)), BitVec(width))
        assert counts[a, b] == metrics.components(build_graph(family))[0], (a, b)
