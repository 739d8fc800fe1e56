import pytest

from ringgraphs import metrics, verify
from ringgraphs.graphs import build_graph
from ringgraphs.maps import Affine, MapFamily, PowerPlus, preset
from ringgraphs.spaces import UpperTri2, Zn, ZnNonzero
from ringgraphs.survey import connectivity_locus
from ringgraphs.verify import Verdict


def connected(g):
    return metrics.components(g)[0] == 1


def test_lemma1_small():
    v = verify.verify_lemma1(16)
    assert v.passed
    assert v.agreements == 15
    assert v.disagreements == ()


def test_lemma1_explicit_cases():
    assert connected(build_graph(MapFamily((verify.Affine(2, 0),), Zn(8))))
    assert not connected(
        build_graph(MapFamily((verify.Affine(2, 0),), Zn(6)))
    )


def test_artin_with_list_pinning():
    v = verify.verify_artin(103)
    assert v.passed
    assert v.agreements == 102


def test_fermat_small_and_components():
    v = verify.verify_fermat(300, extras=())
    assert v.passed
    # three components on the full ring at 59 (isolated 0 plus two halves),
    # two among the nonzero residues
    g_full = build_graph(MapFamily((PowerPlus(2, 0),), Zn(59)))
    assert metrics.components(g_full)[0] == 3
    g_nz = build_graph(MapFamily((PowerPlus(2, 0),), ZnNonzero(59)))
    assert metrics.components(g_nz)[0] == 2
    assert connected(build_graph(MapFamily((PowerPlus(2, 0),), ZnNonzero(257))))


def test_collatz_triangles_small():
    v = verify.verify_collatz_triangles(113)
    assert v.passed


def test_pierpont_with_list():
    v = verify.verify_pierpont(600, space_kind="znz")
    assert v.passed


def test_pierpont_large_reference_cases():
    # 768 = 2^8 * 3 and 10368 = 2^7 * 3^4, so both moduli connect
    for n in (769, 10369):
        g = build_graph(preset("pierpont", n))
        assert connected(g), n


def test_pierpont_alternate_vertex_set_reading():
    # the {2..n-1} reading agrees with the proposition on this range
    v = verify.verify_pierpont(600, space_kind="from2")
    assert v.passed


def test_power_pair_examples():
    v = verify.verify_power_pair(2, 5, 101)
    assert v.passed
    # x^2,x^3 is the same claim as the pierpont checker, definitionally
    v23 = verify.verify_power_pair(2, 3, 120)
    vp = verify.verify_pierpont(120, space_kind="znz")
    assert v23.passed == vp.passed
    assert v23.agreements == vp.agreements
    # 6 = 2*3 is not {2,5}-smooth, so 7 must be disconnected
    fam = MapFamily((PowerPlus(2, 0), PowerPlus(5, 0)), ZnNonzero(7))
    assert not connected(build_graph(fam))


def test_power_pair_with_a_strong_pseudoprime_exponent():
    # 318665857834031151167461 passes Miller-Rabin on the twelve prime bases
    # 2..37 but is 399165290221 * 798330580441; base 41 exposes it
    v = verify.verify_power_pair(318665857834031151167461, 5, 30)
    assert v.tested_range == (
        "x^318665857834031151167461,x^5,P={5,399165290221,798330580441},2..30"
    )


def test_affine_table_small():
    v = verify.verify_affine_table(100)
    assert v.passed
    assert v.agreements == 34 + 35  # tabulated cells plus containment pairs


def test_affine_table_cell_examples():
    def cell(a, b):
        locus = connectivity_locus((Affine(a, b),), "zn", range(1, 101))
        return list(locus.connected_params())

    assert cell(3, 1) == [1, 2, 3, 6, 9, 18, 27, 54, 81]
    assert cell(2, 0) == [1, 2, 4, 8, 16, 32, 64]


def test_collatz_connected_small():
    v = verify.verify_collatz_connected(500)
    assert v.passed
    assert connected(build_graph(preset("collatz", 31)))
    assert connected(build_graph(preset("collatz", 2)))


def test_matrix_example_structure():
    # the stated matrix example does not hold computationally; the verdict
    # must report the counterexample honestly (see the acceptance suite)
    v = verify.verify_matrix_example()
    assert v.passed == (not v.disagreements)
    ut2_squares = MapFamily((PowerPlus(2, 0),), UpperTri2(5))
    assert metrics.components(build_graph(ut2_squares))[0] >= 2
    from ringgraphs.maps import MatQuad
    from ringgraphs.spaces import Mat2

    g = build_graph(MapFamily((MatQuad((0, 0, 0, 0)),), Mat2(2)))
    assert metrics.components(g)[0] >= 2


def test_verdict_passed_iff_no_disagreements():
    assert Verdict("x", "r", 3, ()).passed
    assert not Verdict("x", "r", 3, (5,)).passed


def test_verdict_serialization_deterministic():
    a = verify.verify_lemma1(64).to_line()
    b = verify.verify_lemma1(64).to_line()
    assert a == b
    assert a == "lemma1 range=2..64 agree=63 disagree=[] PASS"


def test_run_claim_dispatch():
    v = verify.run_claim("lemma1", n_max=32)
    assert v.claim_id == "lemma1" and v.passed
    v = verify.run_claim("power-pair", a=2, b=5, n_max=50)
    assert v.passed
    with pytest.raises(ValueError):
        verify.run_claim("nonesuch")


def test_claims_table_declares_every_claim_once():
    assert verify.CLAIM_IDS == tuple(verify.CLAIMS)
    assert verify.CLAIM_IDS[0] == "lemma1" and verify.CLAIM_IDS[-1] == "matrix-example"
    # run_claim fills in the declared defaults
    v = verify.run_claim("power-pair", n_max=30)
    assert v == verify.verify_power_pair(2, 5, 30)


@pytest.mark.parametrize(
    "claim,kwargs,name",
    [
        ("artin", {"n_max": 50}, "n_max"),
        ("lemma1", {"p_max": 50}, "p_max"),
        ("lemma1", {"extras": (5,)}, "extras"),
        ("fermat", {"p_max": 9}, "p_max"),
        ("matrix-example", {"n_max": 7}, "n_max"),
        ("affine-table", {"containment_max": 300}, "containment_max"),
    ],
)
def test_run_claim_rejects_a_parameter_the_claim_does_not_take(claim, kwargs, name):
    with pytest.raises(ValueError, match=f"^claim {claim} takes no {name}$"):
        verify.run_claim(claim, **kwargs)


def test_pierpont_rejects_other_space_kinds():
    with pytest.raises(ValueError, match="units"):
        verify.verify_pierpont(600, space_kind="units")


def test_pierpont_from2_on_an_empty_range():
    v = verify.verify_pierpont(2, space_kind="from2")
    assert v.to_line() == "pierpont range=3..2 on from2 agree=0 disagree=[] PASS"


def test_collatz_variant_triangle_remarks():
    # the companion affine pairs: 2x+1,3x+1 also settles at 4 triangles for
    # primes > 17, while 5x+2,3x+1 has none for primes > 37
    from ringgraphs.maps import Affine
    from ringgraphs.numtheory import primes_up_to

    for p in (19, 23, 29, 31, 37, 41, 101):
        fam = MapFamily((Affine(2, 1), Affine(3, 1)), Zn(p))
        assert metrics.triangle_count(build_graph(fam)) == 4, p
    for p in (41, 43, 47, 53, 101):
        fam = MapFamily((Affine(5, 2), Affine(3, 1)), Zn(p))
        assert metrics.triangle_count(build_graph(fam)) == 0, p
