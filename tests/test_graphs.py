import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from ringgraphs import graphs, maps, metrics, spaces
from ringgraphs.graphs import build_graph, export_dot, export_edge_list, graph_from_edges
from ringgraphs.maps import Affine, MapFamily, PowerPlus, preset
from ringgraphs.spaces import Zn

from conftest import (
    assert_same_text,
    brute_edges,
    graph_edges,
    loop_dot,
    loop_edge_list,
    run_under_rlimit,
    sorted_csr,
)
from oracles import enumerate_states, image_tables, neighbor_array


def test_doubling_on_z4():
    g = build_graph(MapFamily((Affine(2, 0),), Zn(4)))
    assert graph_edges(g) == {(0, 2), (1, 2), (2, 3)}
    assert metrics.components(g)[0] == 1


def test_doubling_on_z6_components():
    g = build_graph(MapFamily((Affine(2, 0),), Zn(6)))
    _, labels = metrics.components(g)
    comps = {}
    for v, lab in enumerate(labels):
        comps.setdefault(int(lab), set()).add(v)
    assert sorted(comps.values(), key=len) == [{0, 3}, {1, 2, 4, 5}]


def test_neighbors():
    g = build_graph(MapFamily((Affine(2, 0),), Zn(4)))
    assert neighbor_array(g, 2).tolist() == [0, 1, 3]
    single = graph_from_edges(1, [], [])
    assert neighbor_array(single, 0).tolist() == []
    k3 = graph_from_edges(3, [0, 0, 1], [1, 2, 2])
    assert neighbor_array(k3, 0).tolist() == [1, 2]


def test_export_edge_list():
    k3 = graph_from_edges(3, [0, 0, 1], [1, 2, 2])
    assert export_edge_list(k3) == "0 1\n0 2\n1 2\n"
    empty = graph_from_edges(2, [], [])
    assert export_edge_list(empty) == ""
    g = build_graph(MapFamily((Affine(2, 0),), Zn(4)))
    assert export_edge_list(g) == "0 2\n1 2\n2 3\n"


def test_export_dot():
    k3 = graph_from_edges(3, [0, 0, 1], [1, 2, 2])
    doc = export_dot(k3)
    assert doc.startswith("graph G {")
    assert doc.count(" -- ") == 3
    g = build_graph(MapFamily((Affine(2, 0),), Zn(4)))
    doc4 = export_dot(g, Zn(4))
    assert doc4.count("label=") == 4
    assert doc4.count(" -- ") == 3
    assert doc4 == loop_dot(g, payload_labels(Zn(4)))
    with pytest.raises(ValueError, match="zn:5 has 5 states, not 4"):
        export_dot(g, Zn(5))
    assert export_dot(g) == export_dot(g)  # byte determinism
    assert export_edge_list(g) == export_edge_list(g)


def test_loops_dropped_and_images_deduplicated():
    # x -> x is all self-loops; the doubled map below hits targets twice
    g = build_graph(MapFamily((Affine(1, 0),), Zn(9)))
    assert g.edge_count == 0
    g2 = build_graph(MapFamily((Affine(2, 0), Affine(2, 0)), Zn(9)))
    g1 = build_graph(MapFamily((Affine(2, 0),), Zn(9)))
    assert graph_edges(g2) == graph_edges(g1)


@pytest.mark.parametrize(
    "family",
    [
        preset("collatz", 40),
        preset("fermat", 59),
        preset("pierpont", 37),
        preset("dickson", 60),
        preset("dickson+", 60),
        preset("polyring", 3, k=4),
        MapFamily((maps.Exp(2),), Zn(33)),
        MapFamily((maps.CARule(30), maps.CARule(110)), spaces.BitVec(6)),
        MapFamily((maps.MatQuad((1, 2, 2, 4)),), spaces.Mat2(3)),
        MapFamily((maps.PowerPlus(2, 0),), spaces.UpperTri2(4)),
        MapFamily((maps.Perm(3), maps.Perm(8)), Zn(26)),
        MapFamily((maps.WSMap(0.4, 1),), Zn(30)),
        MapFamily((maps.PowerPlus(2, 0),), spaces.ZnUnits(24)),
        MapFamily((maps.PowerPlus(3, 0),), spaces.ZnFromTwo(14)),
    ],
)
def test_build_matches_pointwise_construction(family):
    # dual route: vectorized builder vs single-state application
    g = build_graph(family)
    assert graph_edges(g) == brute_edges(family)


def test_adjacency_invariants_on_sample():
    for fam in (preset("collatz", 97), preset("fermat", 101), preset("dickson+", 80)):
        g = build_graph(fam)
        # symmetry, no loops, sorted unique rows, edge count bound
        assert g.edge_count <= len(fam.maps) * g.vertex_count
        total = 0
        for v in range(g.vertex_count):
            row = neighbor_array(g, v)
            assert (np.diff(row) > 0).all()
            assert v not in row
            total += len(row)
            for u in row:
                assert v in neighbor_array(g, int(u))
        assert total == 2 * g.edge_count


def test_build_is_map_order_invariant():
    fam = preset("collatz", 113)
    shuffled = MapFamily(tuple(reversed(fam.maps)), fam.space)
    assert graph_edges(build_graph(fam)) == graph_edges(build_graph(shuffled))


def test_single_map_graphs_have_no_tetrahedron():
    for n in range(2, 1001, 97):
        g = build_graph(MapFamily((PowerPlus(2, 0),), Zn(n)))
        assert metrics.k4_free(g)
    for fam in (preset("dickson", 300), MapFamily((Affine(3, 1),), Zn(500))):
        assert metrics.k4_free(build_graph(fam))


def test_out_of_range_endpoints_rejected():
    # a key u*V+v with v >= V used to decode as another edge: 0*3+5 -> (1, 2)
    with pytest.raises(ValueError, match="endpoint 5 outside"):
        graph_from_edges(3, [0], [5])
    with pytest.raises(ValueError, match="endpoint -1 outside"):
        graph_from_edges(3, [-1], [0])
    with pytest.raises(ValueError, match="endpoint 3 outside"):
        graph_from_edges(3, [0, 1, 3], [1, 2, 0])
    with pytest.raises(ValueError, match="endpoint 0 outside"):
        graph_from_edges(0, [0], [0])  # a loop is still an endpoint


def assert_matches_sort_oracle(vertex_count, us, vs, g=None):
    if g is None:
        g = graph_from_edges(vertex_count, us, vs)
    indptr, indices, edge_count = sorted_csr(vertex_count, us, vs)
    assert g.indptr.dtype == np.int32 and g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    assert g.edge_count == edge_count


def family_pairs(family):
    src = np.arange(family.space.size, dtype=np.int64)
    tables = image_tables(family)
    return (
        family.space.size,
        np.concatenate([src[t >= 0] for t in tables]),
        np.concatenate([t[t >= 0] for t in tables]),
    )


def test_canonicalisation_matches_sort_oracle():
    rng = np.random.default_rng(5)
    for vertex_count, pairs in ((3, 20), (10, 100), (50, 30), (200, 5000), (1000, 3000)):
        us = rng.integers(0, vertex_count, pairs)
        vs = rng.integers(0, vertex_count, pairs)
        vs[::7] = us[::7]  # loops
        assert_matches_sort_oracle(
            vertex_count, np.concatenate([us, vs[:9]]), np.concatenate([vs, us[:9]])
        )
    for vertex_count in (0, 1, 2, 7):
        assert_matches_sort_oracle(vertex_count, [], [])
    assert_matches_sort_oracle(1, [0, 0], [0, 0])  # loops only
    assert_matches_sort_oracle(2, [0, 1, 1, 0], [1, 0, 1, 1])
    for name, n in (("collatz", 97), ("fermat", 127), ("pierpont", 50),
                    ("dickson", 300), ("dickson+", 80), ("polyring", 3)):
        assert_matches_sort_oracle(*family_pairs(preset(name, n)))
    # every edge of the 5-cycle 256 and 300 times: a per-pair count that
    # wraps at 256 reads 0 or 44, and dropping zero counts loses edges
    for times in (256, 300):
        copies = MapFamily((Affine(1, 1),) * times, Zn(5))
        assert_matches_sort_oracle(*family_pairs(copies))
        assert graph_edges(build_graph(copies)) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def export_cases():
    # endpoints at every power-of-ten boundary up to 1000
    yield graph_from_edges(
        1001, [0, 9, 9, 99, 99, 999, 0, 10, 100], [9, 10, 99, 100, 999, 1000, 1000, 11, 101]
    )
    yield from (graph_from_edges(v, [], []) for v in (0, 1, 10, 11))
    yield graph_from_edges(10, range(9), range(1, 10))
    yield graph_from_edges(11, range(10), range(1, 11))
    yield graph_from_edges(11, [0] * 10, range(1, 11))
    yield build_graph(preset("collatz", 1000))
    yield build_graph(MapFamily((Affine(1, 1), Affine(1, 37)), Zn(12345)))
    # the sizes of the digit spaces of label_spaces
    yield build_graph(MapFamily((maps.PolyDeriv(), maps.PolySquare()), spaces.PolyQuot(11, 3)))
    yield build_graph(MapFamily((PowerPlus(2, 0), PowerPlus(2, 1)), spaces.UpperTri2(12)))
    yield build_graph(MapFamily((maps.MatQuad((1, 2, 2, 4)),), spaces.Mat2(3)))
    yield build_graph(MapFamily((maps.CARule(30),), spaces.BitVec(4)))


def payload_labels(space):
    """The label of each state, from the pointwise route."""
    return [str(s.payload) for s in enumerate_states(space)]


def label_spaces(vertex_count):
    """Spaces of vertex_count states to label a graph with: a residue run
    whose residues are two past the vertices (so a width can grow by one
    digit), the one-column digit space, whose labels print as (a,), and a
    digit space of three or more columns, some wider than one digit or
    pinned at 0, when one has that size."""
    if vertex_count == 0:
        return []
    found = [spaces.ZnFromTwo(vertex_count + 2), spaces.PolyQuot(vertex_count, 1)]
    wide = [spaces.PolyQuot(11, 3), spaces.UpperTri2(12), spaces.Mat2(3), spaces.BitVec(4)]
    return found + [space for space in wide if space.size == vertex_count][:1]


def assert_export_matches_loops(g):
    assert_same_text(export_edge_list(g), loop_edge_list(g))
    assert_same_text(export_dot(g), loop_dot(g))
    for space in label_spaces(g.vertex_count):
        assert_same_text(export_dot(g, space), loop_dot(g, payload_labels(space)), space.spec())


def test_assert_same_text_reports_the_first_differing_line():
    with pytest.raises(AssertionError, match="^doc: line 2 is '1 3', expected '1 2'$"):
        assert_same_text("0 1\n1 3\n", "0 1\n1 2\n", "doc")
    with pytest.raises(AssertionError, match="^doc: 2 lines, expected 1$"):
        assert_same_text("0 1\n", "0 1", "doc")


def block_cut_cases(chunk):
    """Graphs whose CSR rows cut into export blocks of chunk entries at the
    edge cases: empty rows, a row longer than a block, a last row alone."""
    big = chunk + 2
    # empty rows first, between and last
    yield graph_from_edges(12, [2, 2, 5, 6], [3, 5, 6, 7])
    # the first row is longer than a block, and the rows after it are empty
    yield graph_from_edges(big + 4, [0] * big, range(1, big + 1))
    # a path, then the last row, longer than a block, joined to all of it
    path = list(range(big - 1))
    yield graph_from_edges(big + 1, path + list(range(big)), [v + 1 for v in path] + [big] * big)
    # the row before the last is longer than a block and holds the last edge
    yield graph_from_edges(big + 2, [big] * (big + 1), list(range(big)) + [big + 1])


def greedy_block_count(indptr, chunk):
    """Blocks of consecutive rows of at most chunk entries each, a longer
    row alone, taken greedily from the first row."""
    rows, blocks, start = len(indptr) - 1, 0, 0
    while start < rows:
        stop = start + 1
        while stop < rows and indptr[stop + 1] - indptr[start] <= chunk:
            stop += 1
        blocks, start = blocks + 1, stop
    return blocks


@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_export_matches_fstring_loops(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(graphs, "_EXPORT_CHUNK", chunk)
    chunk = graphs._EXPORT_CHUNK
    text_rows, calls = graphs._text_rows, []

    def spy(*args):
        calls.append(args)
        return text_rows(*args)

    monkeypatch.setattr(graphs, "_text_rows", spy)
    for g in [*export_cases(), *block_cut_cases(chunk)]:
        calls.clear()
        assert_export_matches_loops(g)
        # every export cuts the rows into the same blocks, and each labelled
        # one writes one label block per chunk of states
        labelled = len(label_spaces(g.vertex_count))
        edge_blocks = greedy_block_count(g.indptr, chunk)
        label_blocks = -(-g.vertex_count // chunk)
        assert len(calls) == (2 + labelled) * edge_blocks + labelled * label_blocks


@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_edge_lines_at_digit_group_boundaries(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(graphs, "_EXPORT_CHUNK", chunk)
    # both sides of every power of ten up to 10**7, then the largest vertex
    # under the cap: every width from 1 to 8 digits, and both 4-digit groups
    bounds = [0] + [e for k in range(1, 8) for e in (10**k - 1, 10**k)]
    bounds.append(spaces.SIZE_CAP - 1)
    for top in range(1, len(bounds) + 1):
        ends = np.array(bounds[:top], dtype=np.int32)
        us, vs = np.repeat(ends, top), np.tile(ends, top)
        for before, between, after in (("", " ", "\n"), ("  ", " -- ", ";\n")):
            expected = "".join(f"{before}{u}{between}{v}{after}" for u, v in zip(us, vs))
            assert graphs._text_rows((us, vs), (before, between, after)) == expected
        # three and four columns of their own widths, the last int64 and
        # one digit wide, between texts of every length from 0 to 3
        ws, zs = us[::-1].copy(), np.arange(len(us), dtype=np.int64) % 10
        expected = "".join(f"{u}|{v}, {w}[ ]{z}\n" for u, v, w, z in zip(us, vs, ws, zs))
        assert graphs._text_rows((us, vs, ws, zs), ("", "|", ", ", "[ ]", "\n")) == expected
        expected = "".join(f"({w}, {u}, {v})" for u, v, w in zip(us, vs, ws))
        assert graphs._text_rows((ws, us, vs), ("(", ", ", ", ", ")")) == expected


@pytest.mark.parametrize(
    "family, escapes",
    [
        (MapFamily((Affine(2, 0), PowerPlus(2, 0)), spaces.ZnNonzero(16)), True),
        (MapFamily((PowerPlus(2, 0), Affine(1, 1)), spaces.ZnFromTwo(15)), True),
        (MapFamily((Affine(1, 1),), spaces.ZnUnits(15)), True),
        (MapFamily((PowerPlus(2, 0), Affine(3, 2)), spaces.ZnUnits(77)), False),
        (MapFamily((maps.MatQuad((1, 2, 2, 4)), PowerPlus(3, 1)), spaces.Mat2(3)), False),
        (MapFamily((PowerPlus(2, 0), PowerPlus(2, 1)), spaces.UpperTri2(4)), False),
        (preset("polyring", 3, k=4), False),
        (MapFamily((maps.CARule(30), maps.CARule(90)), spaces.BitVec(7)), False),
        (MapFamily((maps.Perm(3), maps.Perm(8)), Zn(26)), False),
        (MapFamily((Affine(1, 0),), Zn(7)), False),  # all loops
        (MapFamily((Affine(2, 3), Affine(1, 0)), Zn(1)), False),  # V = 1
        (MapFamily((Affine(1, 1),) * 256, Zn(5)), False),
        (preset("collatz", 1000), False),
    ],
)
def test_build_graph_matches_edge_route(family, escapes):
    # the regular-table route of build_graph against graph_from_edges on the
    # same pairs and against the sorting oracle
    if escapes:
        assert any((t < 0).any() for t in image_tables(family))
    pairs = family_pairs(family)
    assert_matches_sort_oracle(*pairs)
    assert_matches_sort_oracle(*pairs, g=build_graph(family))


def test_row_pointer_is_int32_until_it_would_wrap():
    # scipy keeps an int32 row pointer and the table as they are
    family = preset("collatz", 1000)
    table = np.column_stack(image_tables(family))
    graphs.loop_escapes(table)
    indptr = graphs.row_pointer(table)
    mat = csr_matrix((table.ravel() >= 0, table.ravel(), indptr), shape=(1000, 1000))
    assert mat.indptr is indptr and np.shares_memory(mat.indices, table)
    # tables of 2^31 - 1 and 2^31 entries, as zero-strided views
    for k, dtype in (((1 << 31) - 1, np.int32), (1 << 31, np.int64)):
        indptr = graphs.row_pointer(np.broadcast_to(np.int32(0), (1, k)))
        assert indptr.dtype == dtype and indptr.tolist() == [0, k]


# SHA-256 of the int32 indptr and indices of build_graph of 2x,3x+1 on
# zn:2^22, little-endian, as built before the row pointer was int32
_BUILD_2_22_SHA256 = "e0f42b749b326890e21f08c528e1a9dec9d095bfa94525707521e220d4aa951a"


def test_build_graph_at_2_22_fits_in_456_mib_of_address_space():
    # scipy shares the neighbour table and its int32 row pointer, and the
    # image tables are built in chunks of 2^18 states: the smallest
    # address-space limit it ran under was 436 MiB, against 469 MiB with an
    # int64 row pointer, which scipy copied, and chunks of 2^20 states
    # (Linux x86-64, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread)
    code = (
        "import hashlib\n"
        "from ringgraphs import graphs, maps, spaces\n"
        "family = maps.family_from_texts(spaces.parse_space('zn:4194304'), '2x,3x+1')\n"
        "g = graphs.build_graph(family)\n"
        "h = hashlib.sha256()\n"
        "for a in (g.indptr, g.indices):\n"
        "    h.update(a.astype('<i4', copy=False))\n"
        "print(g.edge_count, h.hexdigest())\n"
    )
    got = run_under_rlimit(code, "RLIMIT_AS", 456 << 20)
    assert got == f"8388605 {_BUILD_2_22_SHA256}\n"


def test_components_hand_scipy_the_graph_arrays(monkeypatch):
    # the matrices scipy is given share their indices with the graph, or
    # with the sweep's chunk buffer, and their row pointer is int32
    given, tables = [], []
    scipy_components, offset_chunk = metrics._scipy_components, metrics._offset_chunk

    def capture(mat, **kwargs):
        given.append(mat)
        return scipy_components(mat, **kwargs)

    def capture_table(table, sizes):
        tables.append(table)
        return offset_chunk(table, sizes)

    monkeypatch.setattr(metrics, "_scipy_components", capture)
    monkeypatch.setattr(metrics, "_offset_chunk", capture_table)
    g = build_graph(preset("collatz", 1000))
    metrics.components(g)
    (mat,) = given
    assert np.shares_memory(mat.indices, g.indices)
    assert np.shares_memory(mat.indptr, g.indptr)
    # several chunks of a sweep; scipy copies indices that view less than
    # half of their base array (sputils._prune_array), so each of these
    # chunks fills more than half of the 500-row buffer
    monkeypatch.setattr(metrics, "_CHUNK_VERTICES", 500)
    given.clear()
    metrics.component_counts([preset("collatz", n) for n in range(2, 100)])
    assert len(given) == len(tables) > 2
    for mat, table in zip(given, tables):
        assert np.shares_memory(mat.indices, table)
        assert mat.indptr.dtype == np.int32


def test_vertex_count_above_cap_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the"):
            graph_from_edges(spaces.SIZE_CAP + 1, [], [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # an indptr for 2^25 vertices would be 128 MB


def test_export_holds_its_text_at_most_twice():
    # the block texts and their join, with no whole-graph array and no str
    # object per line beside them
    space = Zn(1 << 18)
    g = build_graph(MapFamily((Affine(2, 0), Affine(3, 1)), space))
    graphs._digit_groups()  # built once, on first use
    exports = {
        "export_edge_list": lambda: export_edge_list(g),
        "export_dot": lambda: export_dot(g),
        "export_dot with labels": lambda: export_dot(g, space),
    }
    for name, export in exports.items():
        tracemalloc.start()
        try:
            text = export()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text) + (4 << 20), name
