import json
import math

import numpy as np
import pytest

from ringgraphs import metrics, survey
from ringgraphs.graphs import build_graph, graph_from_edges, image_tables
from ringgraphs.maps import Affine, CARule, MapFamily, MatQuad, PowerPlus, preset
from ringgraphs.spaces import (
    BitVec,
    Mat2,
    UpperTri2,
    Zn,
    ZnFromTwo,
    ZnNonzero,
    ZnUnits,
)
from ringgraphs.unionfind import UnionFind

from conftest import bfs_distances, brute_triangles


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
    assert metrics.diameter(triangle_graph) == 1
    assert metrics.diameter(path3()) == 2


def test_mean_path_length_examples(triangle_graph):
    assert metrics.mean_path_length(triangle_graph) == 1.0
    assert metrics.mean_path_length(path3()) == pytest.approx(4 / 3)
    lonely = graph_from_edges(1, [], [])
    assert metrics.mean_path_length(lonely) is None


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
    assert rep.component_sizes == (3,)
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
        assert metrics.mean_path_length(g) <= metrics.diameter(g)


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
    assert metrics.diameter(g) == diam
    assert metrics.mean_path_length(g) == pytest.approx(total / pairs)


def test_cycle_graphs_have_uniform_eccentricity():
    for n in (5, 8, 13):
        g = build_graph(MapFamily((Affine(1, 1),), Zn(n)))
        eccs = {max(bfs_distances(g, s).values()) for s in range(n)}
        assert len(eccs) == 1
        assert metrics.diameter(g) == n // 2


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


# -- batched component counts -----------------------------------------------


def union_find_count(tables) -> int:
    uf = UnionFind(len(tables[0]))
    for table in tables:
        for x, y in enumerate(table.tolist()):
            if y >= 0:
                uf.union(x, y)
    return uf.count


def assert_kernel_matches_both_routes(families):
    got = metrics.component_counts(image_tables(f) for f in families)
    per_graph = [metrics.components(build_graph(f))[0] for f in families]
    oracle = [union_find_count(image_tables(f)) for f in families]
    assert got.tolist() == per_graph == oracle


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


def test_component_counts_on_size_zero_and_one():
    singles = [
        MapFamily((Affine(2, 0),), Zn(1)),
        MapFamily((Affine(2, 0),), ZnNonzero(2)),
        MapFamily((Affine(1, 1),), ZnUnits(1)),
        MapFamily((PowerPlus(2, 0),), Mat2(1)),
    ]
    assert_kernel_matches_both_routes(singles)
    empty = (np.zeros(0, dtype=np.int64),)
    assert metrics.components(graph_from_edges(0, [], []))[0] == 0
    assert union_find_count(empty) == 0
    assert metrics.component_counts([empty]).tolist() == [0]
    assert metrics.component_counts([empty, empty]).tolist() == [0, 0]
    tables = [image_tables(f) for f in singles]
    assert metrics.component_counts([empty, tables[0], empty]).tolist() == [0, 1, 0]
    assert metrics.component_counts([]).tolist() == []


def test_component_counts_matrix_rings():
    assert_kernel_matches_both_routes(
        [
            MapFamily((MatQuad((1, 2, 2, 4)),), Mat2(5)),
            MapFamily((PowerPlus(2, 0),), UpperTri2(5)),
            MapFamily((MatQuad((0, 0, 0, 0)),), Mat2(2)),
        ]
    )
    family = MapFamily((MatQuad((1, 2, 2, 4)),), Mat2(5))
    assert metrics.component_counts([image_tables(family)]).tolist() == [5]


def test_component_counts_straddle_chunks(monkeypatch):
    # sizes 1..80 against a 50-vertex chunk: graphs straddle block edges,
    # several are larger than a chunk, and empty graphs sit between them
    monkeypatch.setattr(metrics, "_CHUNK_VERTICES", 50)
    assert_kernel_matches_both_routes([preset("collatz", n) for n in range(1, 81)])
    families = [MapFamily((Affine(2, 0),), ZnNonzero(n)) for n in range(2, 81)]
    assert_kernel_matches_both_routes(families)
    empty = (np.zeros(0, dtype=np.int64),)
    graphs = [image_tables(f) for f in families[45:60]]
    mixed = [g for pair in zip(graphs, [empty] * len(graphs)) for g in pair]
    want = [metrics.components(build_graph(f))[0] for f in families[45:60]]
    assert metrics.component_counts(mixed).tolist() == [
        c for pair in zip(want, [0] * len(want)) for c in pair
    ]


def test_component_counts_at_the_real_chunk_size():
    chunk = metrics._CHUNK_VERTICES
    families = [
        MapFamily((PowerPlus(2, 0),), Zn(chunk - 5)),
        MapFamily((PowerPlus(2, 0),), Zn(11)),  # straddles the first block
        MapFamily((Affine(2, 0),), ZnNonzero(chunk + 1)),  # exactly a chunk
        MapFamily((PowerPlus(3, 0),), ZnNonzero(chunk + 1001)),
        MapFamily((Affine(2, 0),), Zn(12)),
    ]
    got = metrics.component_counts(image_tables(f) for f in families)
    assert got.tolist() == [metrics.components(build_graph(f))[0] for f in families]


def test_component_counts_need_one_map_count_per_sweep():
    one = image_tables(MapFamily((Affine(2, 0),), Zn(8)))
    two = image_tables(preset("collatz", 8))
    for graphs in ([one, two], [two, one]):
        with pytest.raises(ValueError, match="same number of maps"):
            metrics.component_counts(graphs)


def test_component_counts_do_not_depend_on_block_order():
    families = [MapFamily((PowerPlus(2, 0),), Zn(n)) for n in range(1, 200)]
    families += [MapFamily((Affine(2, 0),), ZnNonzero(n)) for n in range(2, 200)]
    tables = [image_tables(f) for f in families]
    base = metrics.component_counts(tables)
    order = np.random.default_rng(7).permutation(len(tables))
    shuffled = metrics.component_counts([tables[i] for i in order])
    assert shuffled.tolist() == base[order].tolist()
    reverse = metrics.component_counts(tables[::-1])
    assert reverse.tolist() == base[::-1].tolist()


@pytest.mark.parametrize("width", [3, 4, 5])
def test_ca_pairs_match_per_pair_route(width):
    counts = np.array(survey.ca_mandelbrot(width).component_counts).reshape(256, 256)
    rng = np.random.default_rng(width)
    pairs = rng.integers(0, 256, size=(300, 2)).tolist() + [[0, 255], [255, 255]]
    for a, b in pairs:
        family = MapFamily((CARule(a), CARule(b)), BitVec(width))
        assert counts[a, b] == metrics.components(build_graph(family))[0], (a, b)
