"""Acceptance gate: one test per stated criterion, each printing a PASS/FAIL
line.  Criterion 11's first half (the stated matrix example) is known not to
hold computationally; its checker reports the counterexample and this test
fails honestly rather than weakening the assertion.
"""

import time

import numpy as np
import pytest

from ringgraphs import metrics, numtheory as nt, survey, verify
from ringgraphs.graphs import build_graph
from ringgraphs.maps import MapFamily, PowerPlus, family_from_texts, preset
from ringgraphs.metrics import full_report
from ringgraphs.spaces import UpperTri2, Zn, ZnNonzero

from conftest import brute_triangles
from oracles import UnionFind


def report(cid: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {cid}: {status}{suffix}")
    return ok


def test_01_figure_graph_statistics():
    t0 = time.time()
    family = family_from_texts(Zn(3000), "x^2+1,x^2+2")
    rep = full_report(build_graph(family))
    elapsed = time.time() - t0
    checks = {
        "diameter": rep.diameter == 9,
        "mean_degree": abs(rep.mean_degree - 3.99) <= 0.01,
        "mu": abs(rep.mu - 5.8) <= 0.05,
        "runtime": elapsed < 60,
    }
    rounded = {
        "local": round(rep.nu_local, 5) == 0.00074,
        "transitivity": round(rep.nu_transitivity, 5) == 0.00074,
    }
    checks["nu"] = any(rounded.values())
    lams = []
    if rounded["local"]:
        lams.append(metrics.lambda_coefficient(rep.mu, rep.nu_local))
    if rounded["transitivity"]:
        lams.append(metrics.lambda_coefficient(rep.mu, rep.nu_transitivity))
    checks["lambda"] = any(
        lam is not None and abs(lam - 0.806994) <= 0.02 for lam in lams
    )
    ok = all(checks.values())
    detail = (
        f"diam={rep.diameter} deg={rep.mean_degree:.4f} mu={rep.mu:.4f} "
        f"nu_t={rep.nu_transitivity:.6f} lam={lams} {elapsed:.1f}s"
    )
    assert report("01 figure-graph", ok, detail), checks


def test_02_doubling_connectivity_power_of_two():
    t0 = time.time()
    verdict = verify.verify_lemma1(4096)
    elapsed = time.time() - t0
    ok = verdict.passed and elapsed < 30
    assert report("02 doubling-power-of-two", ok, f"{elapsed:.1f}s"), verdict.to_line()


def test_03_doubling_on_nonzero_residues():
    verdict = verify.verify_artin(2000)
    # the two stated prime lists, re-derived from the graphs directly
    connected = [
        p
        for p in range(3, 104)
        if nt.is_prime(p)
        and metrics.components(
            build_graph(family_from_texts(ZnNonzero(p), "2x"))
        )[0] == 1
    ]
    lists_ok = tuple(connected) == verify.ARTIN_CONNECTED_PRIMES
    ok = verdict.passed and lists_ok
    assert report("03 primitive-root-doubling", ok, f"agree={verdict.agreements}")


def test_04_squaring_connectivity():
    t0 = time.time()
    verdict = verify.verify_fermat(1000, extras=(65537,))
    predicted = [n for n in range(2, 1001) if n == 2 or nt.is_fermat_prime(n)]
    set_ok = predicted == [2, 3, 5, 17, 257] and nt.is_fermat_prime(65537)
    g59 = build_graph(MapFamily((PowerPlus(2, 0),), Zn(59)))
    comps59 = metrics.components(g59)[0]
    elapsed = time.time() - t0
    ok = verdict.passed and set_ok and comps59 == 3 and elapsed < 300
    assert report(
        "04 squaring-connectivity", ok, f"G59={comps59} comps {elapsed:.1f}s"
    ), verdict.to_line()


def test_05_euler_characteristic_sequence():
    seq = survey.euler_sequence(23)
    want = (1, 2, 2, 2, 2, 4, 3, 2, 3, 4, 2, 4, 3, 6, 4, 2, 2, 6, 3, 4, 6, 4, 2)
    g127 = build_graph(MapFamily((PowerPlus(2, 0),), Zn(127)))
    tri = metrics.triangle_count(g127)
    ok = seq == want and tri == 2
    assert report("05 euler-sequence", ok, f"tri(127)={tri}")


def test_06_collatz_triangles():
    verdict = verify.verify_collatz_triangles(499)
    assert report("06 collatz-triangles", verdict.passed), verdict.to_line()


def test_07_power_map_connectivity():
    verdict = verify.verify_pierpont(600, space_kind="znz")
    pair = verify.verify_power_pair(2, 5, 101)
    predicted = [
        n for n in range(2, 102) if nt.is_one_plus_smooth_prime(n, {2, 5})
    ]
    list_ok = predicted == [2, 3, 5, 11, 17, 41, 101]
    ok = verdict.passed and pair.passed and list_ok
    assert report("07 power-pairs", ok), (verdict.to_line(), pair.to_line())


def test_08_affine_table():
    verdict = verify.verify_affine_table(200)
    assert report("08 affine-table", verdict.passed), verdict.to_line()


@pytest.mark.slow
def test_09_collatz_connected_to_twenty_thousand():
    t0 = time.time()
    verdict = verify.verify_collatz_connected(20000)
    elapsed = time.time() - t0
    ok = verdict.passed and elapsed < 600
    assert report(
        "09 collatz-connected", ok, f"agree={verdict.agreements} {elapsed:.0f}s"
    ), verdict.to_line()


def test_10_artin_census():
    count, fraction = survey.artin_census(10**4)
    ok = abs(fraction - 0.3739558) < 0.02
    assert report("10 artin-census", ok, f"count={count} fraction={fraction}")


def test_11_matrix_rings():
    ut2_squares = MapFamily((PowerPlus(2, 0),), UpperTri2(5))
    ut_comps = metrics.components(build_graph(ut2_squares))[0]
    ut_ok = ut_comps >= 2
    verdict = verify.verify_matrix_example()
    ok = ut_ok and verdict.passed
    report("11 matrix-rings", ok, f"ut2(5)={ut_comps} comps; {verdict.to_line()}")
    assert ut_ok
    # the stated example graph is not connected (5 components; no constant
    # works); the checker stays faithful to the claim and reports FAIL
    assert verdict.passed, verdict.to_line()


@pytest.mark.slow
def test_12_ca_connectivity_grid():
    t0 = time.time()
    serial = survey.ca_mandelbrot(9)
    elapsed = time.time() - t0
    grid = survey.grid_of(serial)
    sym = np.array_equal(grid, grid.T)
    cells = bool(grid[0, 255]) and not bool(grid[204, 204])
    pbm = survey.to_pbm(serial)
    again = survey.to_pbm(survey.ca_mandelbrot(9, workers=2))
    third = survey.to_pbm(survey.ca_mandelbrot(9, workers=3))
    bytes_ok = pbm == again == third
    ok = sym and cells and bytes_ok and elapsed < 600
    assert report(
        "12 ca-grid",
        ok,
        f"sym={sym} cells={cells} bytes={bytes_ok} {elapsed:.0f}s",
    )


def _preset_matrix():
    for n in range(2, 501):
        yield preset("collatz", n)
        yield preset("fermat", n)
        yield preset("pierpont", n)
        yield preset("dickson", n)
        yield preset("dickson+", n)
    for n, k in ((2, 6), (3, 6), (4, 6), (5, 6), (2, 4), (3, 4), (7, 4)):
        yield preset("polyring", n, k=k)


@pytest.mark.slow
def test_13_property_suites():
    # adjacency symmetry and loop-freeness across every preset, n <= 500
    from scipy.sparse import csr_matrix

    for fam in _preset_matrix():
        g = build_graph(fam)
        src = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
        assert not np.any(src == g.indices), fam.provenance()
        mat = csr_matrix(
            (np.ones(len(g.indices), dtype=np.int8), g.indices, g.indptr),
            shape=(g.vertex_count, g.vertex_count),
        )
        assert (mat != mat.T).nnz == 0, fam.provenance()
        assert g.edge_count <= len(fam.maps) * g.vertex_count

    # triangle counts against brute force on graphs of <= 200 vertices
    for fam in (
        preset("collatz", 113),
        preset("collatz", 200),
        preset("fermat", 127),
        preset("dickson+", 150),
    ):
        g = build_graph(fam)
        assert g.vertex_count <= 200
        assert metrics.triangle_count(g) == brute_triangles(g)

    # component labels against the independent union-find
    for fam in (preset("collatz", 499), preset("fermat", 500), preset("dickson", 360)):
        g = build_graph(fam)
        count, labels = metrics.components(g)
        uf = UnionFind(g.vertex_count)
        us, vs = g.edge_arrays()
        for u, v in zip(us, vs):
            uf.union(int(u), int(v))
        assert uf.count == count

    # seeded experiments reproduce byte-for-byte
    a = survey.permutation_lambda(100, 10, seed=7)
    b = survey.permutation_lambda(100, 10, seed=7)
    assert a.to_csv() == b.to_csv()
    report("13 property-suites", True)
