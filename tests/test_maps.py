import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringgraphs import maps, spaces
from ringgraphs.maps import (
    Affine,
    CARule,
    Dickson,
    Exp,
    MapFamily,
    MapParseError,
    MatQuad,
    Perm,
    PolyAddConst,
    PolyDeriv,
    PolySquare,
    PowerPlus,
    WSMap,
    apply,
    ca_step,
    format_map,
    image_table,
    parse_map,
    parse_maps,
    preset,
)
from ringgraphs.spaces import BitVec, Mat2, PolyQuot, State, UpperTri2, Zn, ZnNonzero


# -- parsing ----------------------------------------------------------------


def test_parse_examples():
    assert parse_map("3x+1") == Affine(3, 1)
    assert parse_map("x^2+2") == PowerPlus(2, 2)
    assert parse_map("x") == Affine(1, 0)
    assert parse_map("2x") == Affine(2, 0)
    assert parse_map("x-1") == Affine(1, -1)
    assert parse_map("2^x") == Exp(2)
    assert parse_map("sigma") == Dickson()
    assert parse_map("succ") == Affine(1, 1)
    assert parse_map("deriv") == PolyDeriv()
    assert parse_map("square") == PolySquare()
    assert parse_map("addc:1,1,1,1,1,0") == PolyAddConst((1, 1, 1, 1, 1, 0))
    assert parse_map("ca:110") == CARule(110)
    assert parse_map("perm:42") == Perm(42)
    assert parse_map("ws:0.5:3") == WSMap(0.5, 3)
    assert parse_map("matquad:1,2,2,4") == MatQuad((1, 2, 2, 4))


def test_parse_is_whitespace_insensitive():
    assert parse_map(" 3 x + 1 ") == Affine(3, 1)
    assert parse_map("x ^ 2 + 2") == PowerPlus(2, 2)
    assert parse_maps(" 2x , 3x+1 ") == (Affine(2, 0), Affine(3, 1))


def test_parse_errors_carry_positions():
    with pytest.raises(MapParseError) as err:
        parse_map("3x+")
    assert err.value.pos == 3
    with pytest.raises(MapParseError):
        parse_map("")
    with pytest.raises(MapParseError) as err:
        parse_map("frobnicate")
    assert "unknown map name" in str(err.value)
    with pytest.raises(MapParseError):
        parse_map("ca:300")
    with pytest.raises(MapParseError):
        parse_map("x^2+1 garbage")


def test_parse_maps_with_argument_commas():
    got = parse_maps("deriv,square,addc:1,1,1,1,1,0")
    assert got == (PolyDeriv(), PolySquare(), PolyAddConst((1, 1, 1, 1, 1, 0)))
    got = parse_maps("matquad:1,2,2,4,x^2")
    assert got == (MatQuad((1, 2, 2, 4)), PowerPlus(2, 0))


_EXPRS = st.one_of(
    st.builds(Affine, st.integers(0, 50), st.integers(-50, 50)),
    st.builds(PowerPlus, st.integers(0, 20), st.integers(-50, 50)),
    st.builds(Exp, st.integers(0, 50)),
    st.just(Dickson()),
    st.just(PolyDeriv()),
    st.just(PolySquare()),
    st.builds(
        PolyAddConst, st.lists(st.integers(0, 20), min_size=1, max_size=6).map(tuple)
    ),
    st.builds(CARule, st.integers(0, 255)),
    st.builds(Perm, st.integers(0, 2**64 - 1)),
    st.builds(WSMap, st.floats(0, 4, allow_nan=False), st.integers(0, 50)),
    st.builds(
        MatQuad,
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
                  st.integers(0, 20)),
    ),
)


@given(_EXPRS)
@settings(max_examples=300, deadline=None)
def test_format_parse_roundtrip(expr):
    assert parse_map(format_map(expr)) == expr


# -- application ------------------------------------------------------------


def test_apply_examples():
    assert apply(Affine(2, 0), State(Zn(8), 5)).payload == 2
    assert apply(Dickson(), State(Zn(100), 6)).payload == 6
    s = State(BitVec(9), (0, 1, 0, 1, 1, 0, 1, 1, 0))
    assert apply(CARule(204), s) == s


def test_apply_identity():
    for space in (Zn(12), ZnNonzero(11), spaces.ZnUnits(10)):
        for s in space.enumerate():
            assert apply(Affine(1, 0), s) == s


def test_apply_escape_is_none():
    # squaring sends 4 to 0, which is outside the nonzero residues
    assert apply(PowerPlus(2, 0), State(ZnNonzero(16), 4)) is None
    assert apply(Affine(2, 0), State(ZnNonzero(6), 3)) is None


def test_exp_map_values():
    space = Zn(5)
    vals = [apply(Exp(2), State(space, x)).payload for x in range(5)]
    assert vals == [1, 2, 4, 3, 1]


def test_ws_map_matches_shift_at_zero_epsilon():
    space = Zn(40)
    assert np.array_equal(
        image_table(WSMap(0.0, 3), space), image_table(Affine(1, 3), space)
    )
    # floor applies before the shift
    assert apply(WSMap(0.5, 1), State(Zn(100), 5)).payload == (int(5**1.5) + 1) % 100


def test_ws_table_matches_apply_above_two_to_the_63():
    # x^3 passes 2^63 near the top of zn:2^22, where the power is a float that
    # int64 cannot hold; above 2^53 every float is an integer, so floor keeps
    # any last-bit difference between two float powers
    space = Zn(1 << 22)
    expr = WSMap(2.0, 0)
    table = image_table(expr, space)
    tail = range(space.n - 2000, space.n)
    assert [int(table[x]) for x in tail] == [
        apply(expr, State(space, x)).payload for x in tail
    ]
    small = Zn(5000)
    table = image_table(WSMap(5.0, 3), small)
    assert table.tolist() == [apply(WSMap(5.0, 3), s).payload for s in small.enumerate()]


def test_ws_overflow_is_rejected_on_both_routes():
    # 9^401 is above the largest float
    with pytest.raises(OverflowError):
        image_table(WSMap(400.0, 0), Zn(10))
    with pytest.raises(OverflowError):
        apply(WSMap(400.0, 0), State(Zn(10), 9))


def test_matrix_power_application():
    s = State(UpperTri2(5), (1, 1, 0, 1))
    assert apply(PowerPlus(2, 0), s).payload == (1, 2, 0, 1)
    m = State(Mat2(5), (1, 2, 2, 4))
    sq = apply(PowerPlus(2, 0), m).payload
    assert sq == ((1 + 4) % 5, (2 + 8) % 5, (2 + 8) % 5, (4 + 16) % 5)
    plus = apply(MatQuad((1, 0, 0, 1)), m).payload
    assert plus == ((sq[0] + 1) % 5, sq[1], sq[2], (sq[3] + 1) % 5)


def test_poly_applications():
    space = PolyQuot(5, 4)
    f = State(space, (1, 2, 3, 4))
    assert apply(PolyDeriv(), f).payload == (2, 6 % 5, 12 % 5, 0)
    assert apply(PolyAddConst((1, 1)), f).payload == (2, 3, 3, 4)
    # (1 + x)^2 = 1 + 2x + x^2
    g = State(space, (1, 1, 0, 0))
    assert apply(PolySquare(), g).payload == (1, 2, 1, 0)


def test_ca_step_examples():
    assert ca_step(0, (1, 0, 1, 1)) == (0, 0, 0, 0)
    assert ca_step(204, (0, 1, 0, 1, 1, 0, 1, 1, 0)) == (0, 1, 0, 1, 1, 0, 1, 1, 0)
    assert ca_step(255, (0, 0, 0)) == (1, 1, 1)
    with pytest.raises(ValueError):
        ca_step(30, (0, 1))


@pytest.mark.parametrize("width", range(3, 13))
def test_ca_rule_204_is_identity(width):
    table = image_table(CARule(204), BitVec(width))
    assert np.array_equal(table, np.arange(1 << width))


def test_ca_rule_110_against_hand_transition():
    # 110 = 01101110: neighborhoods 111,110,101,100,011,010,001,000
    assert ca_step(110, (0, 0, 1, 0, 0)) == (0, 1, 1, 0, 0)


def test_random_permutation_properties():
    assert list(image_table(Perm(99), Zn(1))) == [0]
    t5 = image_table(Perm(7), Zn(5))
    assert sorted(t5.tolist()) == [0, 1, 2, 3, 4]
    a = image_table(Perm(42), Zn(100))
    b = image_table(Perm(42), Zn(100))
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == list(range(100))


def test_perm_bijections_across_sizes_and_seeds():
    for n in (2, 3, 17, 64):
        for seed in (0, 1, 2, 12345):
            t = image_table(Perm(seed), Zn(n))
            assert sorted(t.tolist()) == list(range(n))


def test_affine_bijection_on_prime_fields():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(1, p):
            for b in range(p):
                t = image_table(Affine(a, b), Zn(p))
                assert sorted(t.tolist()) == list(range(p)), (p, a, b)
    for p in (41, 53, 67, 79, 97, 101):
        for a in range(1, p):
            for b in (0, 1, p - 1):
                t = image_table(Affine(a, b), Zn(p))
                assert sorted(t.tolist()) == list(range(p)), (p, a, b)


def test_poly_derivative_nilpotent():
    for n in (2, 3, 5):
        for k in (2, 3, 4):
            space = PolyQuot(n, k)
            for s in space.enumerate():
                out = s
                for _ in range(k):
                    out = apply(PolyDeriv(), out)
                assert out.payload == (0,) * k


@pytest.mark.parametrize(
    "family",
    [
        MapFamily((Affine(3, 1),), Zn(10)),
        MapFamily((PowerPlus(2, 1),), ZnNonzero(13)),
        MapFamily((Exp(2),), Zn(9)),
        MapFamily((Dickson(),), Zn(30)),
        MapFamily((WSMap(0.3, 2),), Zn(25)),
        MapFamily((Perm(5),), Zn(19)),
        MapFamily((Perm(5),), BitVec(4)),
        MapFamily((MatQuad((1, 2, 2, 4)),), Mat2(3)),
        MapFamily((PowerPlus(2, 0),), Mat2(3)),
        MapFamily((PowerPlus(3, 1),), UpperTri2(3)),
        MapFamily((MatQuad((1, 2, 0, 4)),), UpperTri2(3)),
        MapFamily((PolyDeriv(), PolySquare(), PolyAddConst((1, 2))), PolyQuot(3, 3)),
        MapFamily((CARule(30), CARule(110)), BitVec(5)),
        MapFamily((PowerPlus(2, 0),), spaces.ZnUnits(16)),
        MapFamily((Affine(2, 0),), spaces.ZnFromTwo(9)),
    ],
)
def test_image_table_matches_pointwise_apply(family):
    # the vectorized route must agree with single-state application everywhere
    for m in family.maps:
        table = image_table(m, family.space)
        for s in family.space.enumerate():
            i = family.space.index_of(s)
            out = apply(m, s)
            if out is None:
                assert table[i] == -1
            else:
                assert table[i] == family.space.index_of(out)


def test_family_rejects_inapplicable_maps():
    with pytest.raises(ValueError):
        MapFamily((PolyDeriv(),), Zn(5))
    with pytest.raises(ValueError):
        MapFamily((CARule(30),), Zn(8))
    with pytest.raises(ValueError):
        MapFamily((CARule(30),), BitVec(2))  # width below 3
    with pytest.raises(ValueError):
        MapFamily((Affine(2, 1),), BitVec(4))
    with pytest.raises(ValueError):
        MapFamily((MatQuad((1, 2, 3, 4)),), UpperTri2(5))  # not upper triangular
    with pytest.raises(ValueError):
        MapFamily((), Zn(5))


def test_presets():
    fam = preset("collatz", 31)
    assert fam.maps == (Affine(2, 0), Affine(3, 1))
    assert fam.space == Zn(31)
    fam = preset("fermat", 257)
    assert fam.maps == (PowerPlus(2, 0),)
    assert fam.space == ZnNonzero(257)
    fam = preset("pierpont", 769)
    assert fam.maps == (PowerPlus(2, 0), PowerPlus(3, 0))
    assert fam.space == ZnNonzero(769)
    fam = preset("dickson", 50)
    assert fam.maps == (Dickson(),)
    fam = preset("dickson+", 50)
    assert fam.maps == (Dickson(), Affine(1, 1))
    fam = preset("polyring", 4, k=6)
    assert fam.space == PolyQuot(4, 6)
    assert fam.maps == (PolyDeriv(), PolySquare(), PolyAddConst((1, 1, 1, 1, 1, 0)))
    with pytest.raises(ValueError):
        preset("nonesuch", 5)


def test_provenance_text():
    fam = preset("collatz", 31)
    assert fam.provenance() == "2x,3x+1"
