import json
import random

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
    format_map,
    image_table,
    parse_map,
    parse_maps,
    preset,
)
from ringgraphs.spaces import BitVec, Mat2, PolyQuot, UpperTri2, Zn, ZnNonzero

from conftest import run_under_rlimit
from oracles import (
    State,
    apply,
    ca_step,
    enumerate_states,
    index_of,
    shuffled_top,
    state_at,
)


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


@pytest.mark.parametrize(
    "text,canonical",
    [
        (" 3 x + 1 ", "3x+1"),
        ("x", "x"),
        ("x-1", "x-1"),
        ("succ", "x+1"),
        ("x^3-5", "x^3-5"),
        ("2^x", "2^x"),
        ("sigma", "sigma"),
        ("deriv", "deriv"),
        ("square", "square"),
        ("addc:1,0,2", "addc:1,0,2"),
        ("ca:110", "ca:110"),
        ("perm:18446744073709551615", "perm:18446744073709551615"),
        ("ws:1e-3:2", "ws:0.001:2"),
        ("ws:2:0", "ws:2.0:0"),
        ("matquad:1,2,2,4", "matquad:1,2,2,4"),
        # a leading "-" on every integer field, base and tuple entry
        ("-2x+3", "-2x+3"),
        (" - 2 x - 3", "-2x-3"),
        ("-3^x", "-3^x"),
        ("perm:-1", "perm:-1"),
        ("ws:0.5:-3", "ws:0.5:-3"),
        ("addc:1,-2", "addc:1,-2"),
        ("matquad:-1,2,-3,-4", "matquad:-1,2,-3,-4"),
    ],
)
def test_canonical_text_of_every_map_kind(text, canonical):
    assert format_map(parse_map(text)) == canonical


@pytest.mark.parametrize(
    "text,pos",
    [
        ("3x+", 3),
        ("", 0),
        ("frobnicate", 0),
        ("ca:300", 3),
        ("x^2+1 garbage", 6),
        ("addc:", 5),
        ("ca:", 3),
        ("perm:", 5),
        ("ws:0.5", 6),
        ("ws:0.5:", 7),
        ("x--3", 2),
        ("perm:-", 6),
    ],
)
def test_parse_error_positions(text, pos):
    with pytest.raises(MapParseError) as err:
        parse_map(text)
    assert err.value.pos == pos


def test_matquad_needs_four_entries():
    with pytest.raises(MapParseError):
        parse_map("matquad:1,2")


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


_INTS = st.integers(-(2**70), 2**70)
_NEGATIVE_EXPRS = st.one_of(
    st.builds(Affine, _INTS, _INTS),
    st.builds(PowerPlus, st.integers(0, 2**70), _INTS),
    st.builds(Exp, _INTS),
    st.builds(PolyAddConst, st.lists(_INTS, min_size=1, max_size=6).map(tuple)),
    st.builds(Perm, _INTS),
    st.builds(WSMap, st.floats(0, 4, allow_nan=False), _INTS),
    st.builds(MatQuad, st.tuples(_INTS, _INTS, _INTS, _INTS)),
)


@given(_NEGATIVE_EXPRS)
@settings(max_examples=300, deadline=None)
def test_format_parse_roundtrip_with_negative_fields(expr):
    # every integer field of every kind that has one, negative values
    # included (a CA rule is 0..255 and an exponent >= 0)
    assert parse_map(format_map(expr)) == expr
    assert parse_maps(f"{format_map(expr)},{format_map(expr)}") == (expr, expr)


def test_negative_exponent_is_rejected():
    # square-and-multiply would shift a negative exponent forever
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        PowerPlus(-2, 0)
    with pytest.raises(MapParseError, match="exponent must be >= 0 at position 2"):
        parse_map("x^-2")


# -- application ------------------------------------------------------------


def test_apply_examples():
    assert apply(Affine(2, 0), State(Zn(8), 5)).payload == 2
    assert apply(Dickson(), State(Zn(100), 6)).payload == 6
    s = State(BitVec(9), (0, 1, 0, 1, 1, 0, 1, 1, 0))
    assert apply(CARule(204), s) == s


def test_apply_identity():
    for space in (Zn(12), ZnNonzero(11), spaces.ZnUnits(10)):
        for s in enumerate_states(space):
            assert apply(Affine(1, 0), s) == s


def test_apply_escape_is_none():
    # squaring sends 4 to 0, which is outside the nonzero residues
    assert apply(PowerPlus(2, 0), State(ZnNonzero(16), 4)) is None
    assert apply(Affine(2, 0), State(ZnNonzero(6), 3)) is None


def test_exp_map_values():
    space = Zn(5)
    vals = [apply(Exp(2), State(space, x)).payload for x in range(5)]
    assert vals == [1, 2, 4, 3, 1]
    # a base past 2^63 is reduced before the table casts it to int64
    base = 2**70 + 2
    assert image_table(Exp(base), space).tolist() == [pow(base, x, 5) for x in range(5)]


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
    assert table.tolist() == [
        apply(WSMap(5.0, 3), s).payload for s in enumerate_states(small)
    ]


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
            for s in enumerate_states(space):
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
        for s in enumerate_states(family.space):
            i = index_of(family.space, s)
            out = apply(m, s)
            if out is None:
                assert table[i] == -1
            else:
                assert table[i] == index_of(family.space, out)


# -- image tables against the pointwise oracle --------------------------------

# negative constants, and constants past 2^63 that int64 cannot hold
_CONSTS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7]),
)


def _matrix_maps(n: int, upper: bool):
    lower = _CONSTS.map(lambda c: c * n) if upper else _CONSTS  # c = 0 mod n
    return st.one_of(
        st.builds(MatQuad, st.tuples(_CONSTS, _CONSTS, lower, _CONSTS)),
        st.builds(PowerPlus, st.integers(0, 12), _CONSTS),
    )


_RESIDUE_MAPS = st.one_of(
    st.builds(Affine, _CONSTS, _CONSTS),
    st.builds(PowerPlus, st.integers(0, 64) | st.integers(2**63, 2**80), _CONSTS),
    st.builds(Exp, _CONSTS),
    st.builds(WSMap, st.floats(0, 2.5), _CONSTS),
)
_POLY_MAPS = st.one_of(
    st.just(PolyDeriv()),
    st.just(PolySquare()),
    st.builds(PolyAddConst, st.lists(_CONSTS, min_size=1, max_size=12).map(tuple)),
)

# every map kind on every space kind, on spaces near the cap where a table
# takes a few tenths of a second; the digit spaces span several chunks
_ORACLE_CASES = [
    (Zn(1_000_003), _RESIDUE_MAPS),
    (ZnNonzero(1 << 20), _RESIDUE_MAPS),
    (spaces.ZnUnits(1_000_000), _RESIDUE_MAPS),
    (spaces.ZnFromTwo(999_983), _RESIDUE_MAPS),
    (Zn((1 << 18) + 3), st.just(Dickson())),
    (spaces.ZnUnits(1 << 18), st.just(Dickson())),
    (Mat2(40), _matrix_maps(40, upper=False)),
    (UpperTri2(150), _matrix_maps(150, upper=True)),
    (PolyQuot(5, 9), _POLY_MAPS),
    (PolyQuot(2, 21), _POLY_MAPS),
    (BitVec(21), st.builds(CARule, st.integers(0, 255))),
    (Zn(4999), st.builds(Perm, _CONSTS)),
    (ZnNonzero(4999), st.builds(Perm, _CONSTS)),
    (Mat2(8), st.builds(Perm, _CONSTS)),
    (BitVec(12), st.builds(Perm, _CONSTS)),
]


def assert_matches_oracle(table, expr, space, indices):
    for i in indices:
        out = apply(expr, state_at(space, i))
        want = -1 if out is None else index_of(space, out)
        assert table[i] == want, (format_map(expr), space.spec(), i)


def chunk_edges(size: int) -> list[int]:
    """First and last states, and both sides of every chunk boundary."""
    step = maps._TABLE_CHUNK
    edges = [0, size - 1]
    for start in range(step, size, step):
        edges += [start - 1, start]
    return edges


@pytest.mark.parametrize(
    "space,exprs", _ORACLE_CASES, ids=[c[0].spec() for c in _ORACLE_CASES]
)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_image_table_matches_oracle_on_drawn_states(space, exprs, data):
    expr = data.draw(exprs, label="map")
    table = image_table(expr, space)
    assert table.dtype == np.int32 and table.shape == (space.size,)
    drawn = data.draw(
        st.lists(st.integers(0, space.size - 1), min_size=1, max_size=40), label="states"
    )
    assert_matches_oracle(table, expr, space, drawn + chunk_edges(space.size))


# families that together use every map kind and every space kind, with
# seeded permutations and images that escape the restricted residue spaces
_TABLE_FAMILIES = [
    MapFamily((MatQuad((1, -2, 2**70, 4)), PowerPlus(3, -1), Perm(5)), Mat2(3)),
    MapFamily(
        (MatQuad((-1, 2, -(2**66), 4)), PowerPlus(2, 2**64), PowerPlus(0, 1)),
        UpperTri2(4),
    ),
    MapFamily(
        (PolyDeriv(), PolySquare(), PolyAddConst((-1, 2**70, 3, 4, 5))),
        PolyQuot(3, 4),
    ),
    MapFamily((CARule(30), CARule(110), CARule(0), Perm(-1)), BitVec(7)),
    MapFamily((Affine(3, -1), PowerPlus(2**64 + 3, 2**70)), Zn(17)),
    # a constant image x^0, the identity x^1, and constants of 0 mod n
    MapFamily((PowerPlus(0, 0), PowerPlus(0, 3), PowerPlus(1, 0), Affine(1, 34)), Zn(17)),
    # squares and doublings that escape to 0 and 1
    MapFamily((PowerPlus(2, 0), Affine(2, -(2**66))), ZnNonzero(16)),
    MapFamily((PowerPlus(2, -1), Affine(2, 0)), spaces.ZnFromTwo(18)),
    MapFamily((PowerPlus(3, 1), Affine(5, 2), Perm(2)), spaces.ZnUnits(63)),
    MapFamily((Dickson(),), Zn(50)),
    MapFamily((Dickson(),), spaces.ZnUnits(60)),
    MapFamily((WSMap(0.5, 1), WSMap(2.0, -3)), ZnNonzero(40)),
    MapFamily((Exp(2), Exp(2**70 + 3)), spaces.ZnUnits(45)),
]
_TABLE_FAMILY_IDS = [
    "mat2", "ut2", "poly", "bits", "zn", "zn-constants", "znz", "from2", "units",
    "sigma", "units-sigma", "ws", "exp",
]


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("family", _TABLE_FAMILIES, ids=_TABLE_FAMILY_IDS)
def test_image_table_across_chunk_edges(monkeypatch, family, chunk):
    whole = [image_table(m, family.space) for m in family.maps]
    monkeypatch.setattr(maps, "_TABLE_CHUNK", chunk)
    for m, table in zip(family.maps, whole):
        chunked = image_table(m, family.space)
        assert np.array_equal(chunked, table)
        assert_matches_oracle(chunked, m, family.space, range(family.space.size))


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("family", _TABLE_FAMILIES, ids=_TABLE_FAMILY_IDS)
def test_image_table_into_a_strided_column(monkeypatch, family, chunk):
    # out= writes the table into column j of a (V, 3) array, a strided view,
    # returns it and leaves the other columns as they were
    whole = [image_table(m, family.space) for m in family.maps]
    if chunk is not None:
        monkeypatch.setattr(maps, "_TABLE_CHUNK", chunk)
    for m, want in zip(family.maps, whole):
        for j in range(3):
            table = np.full((family.space.size, 3), -7, dtype=np.int32)
            column = table[:, j]
            assert image_table(m, family.space, out=column) is column
            assert np.array_equal(table[:, j], want)
            assert (np.delete(table, j, axis=1) == -7).all()


@pytest.mark.parametrize("out", [np.empty(9, np.int32), np.empty(10, np.int64)])
def test_image_table_rejects_a_misfit_out(out):
    for m in (Affine(2, 1), Perm(3)):
        with pytest.raises(ValueError, match="out must be int32 of shape"):
            image_table(m, Zn(10), out=out)


@pytest.mark.parametrize(
    "expr,space,message",
    [
        (MatQuad((1, 2, 3, 4)), UpperTri2(5), "matrix constant must be upper triangular here"),
        (CARule(30), BitVec(2), "cellular automata need width >= 3"),
        (Affine(2, 0), BitVec(4), "'2x' not applicable to bits:4"),
        (PolySquare(), Mat2(3), "'square' not applicable to mat2:3"),
        (CARule(30), PolyQuot(2, 3), "'ca:30' not applicable to poly:2:3"),
        (MatQuad((1, 2, 2, 4)), Zn(5), "'matquad:1,2,2,4' not applicable to zn:5"),
    ],
)
def test_image_table_rejects_inapplicable_maps(expr, space, message):
    with pytest.raises(ValueError) as err:
        image_table(expr, space)
    assert str(err.value) == message


# (space, map, address-space limit) at the 2^25-state cap: the chunked
# build fits where whole-space columns did not, and int32 tables and
# shuffles where int64 ones and a shuffled Python list did not.  The
# smallest limits each case ran under, int32 against int64 tables: mat2:76
# 373 against 501 MiB, ut2:322 364 against 494, poly:2:25 440 against 567,
# bits:25 440 against 564, zn:33554432 345 against 471 (ws:0.5:1 359
# against 485, perm:7 345 against more than 1,024), znz:33554432 345
# against 471, units:193993800 695 against 816 (Linux x86-64, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread).  Building the units layout in
# one pass over blocks of residues, with no mask of the whole range, took
# units:193993800 from 689 to 513 MiB (bisected to 1 MiB, same platform)
_MIB = 1 << 20
_AT_CAP = [
    pytest.param("mat2:76", "x^3+1", 448 * _MIB, id="mat2:76-x^3+1"),
    pytest.param("ut2:322", "x^2", 432 * _MIB, id="ut2:322-x^2"),
    pytest.param("poly:2:25", "square", 512 * _MIB, id="poly:2:25-square",
                 marks=pytest.mark.slow),
    pytest.param("bits:25", "ca:110", 512 * _MIB, id="bits:25-ca:110",
                 marks=pytest.mark.slow),
    pytest.param("zn:33554432", "x^3-5", 416 * _MIB, id="zn:33554432-x^3-5"),
    pytest.param("zn:33554432", "2^x", 416 * _MIB, id="zn:33554432-2^x",
                 marks=pytest.mark.slow),
    pytest.param("zn:33554432", "sigma", 416 * _MIB, id="zn:33554432-sigma"),
    pytest.param("zn:33554432", "ws:0.5:1", 432 * _MIB, id="zn:33554432-ws:0.5:1",
                 marks=pytest.mark.slow),
    pytest.param("zn:33554432", "perm:7", 416 * _MIB, id="zn:33554432-perm:7",
                 marks=pytest.mark.slow),
    pytest.param("znz:33554432", "x^2", 416 * _MIB, id="znz:33554432-x^2"),
    # phi(n) is under the cap, n is far above it
    pytest.param("units:193993800", "x^2", 576 * _MIB, id="units:193993800-x^2"),
]


# the top positions of a perm table checked at the cap: 64 more than the
# 2^16 steps of one draw chunk of the shuffle
_PERM_TOP = (1 << 16) + 64


@pytest.mark.parametrize("space_text,map_text,limit", _AT_CAP)
def test_image_table_at_the_cap_fits_in_two_gib(space_text, map_text, limit):
    space = spaces.parse_space(space_text)
    expr = parse_map(map_text)
    assert space.size > (1 << 25) - (1 << 20)
    if isinstance(expr, Perm):
        # the oracle's whole shuffle is 2^25 Python-level steps on a list
        # of 2^25 ints; its first steps alone fix the top positions
        select = f"{space.size - _PERM_TOP}:"
    else:
        picks = random.Random(space.size).sample(range(space.size), 24)
        indices = sorted(set(chunk_edges(space.size) + picks))
        select = repr(indices)
    code = (
        "import json\n"
        "from ringgraphs import maps, spaces\n"
        f"space = spaces.parse_space({space_text!r})\n"
        f"table = maps.image_table(maps.parse_map({map_text!r}), space)\n"
        "assert table.shape == (space.size,)\n"
        f"print(json.dumps(table[{select}].tolist()))\n"
    )
    got = json.loads(run_under_rlimit(code, "RLIMIT_AS", limit))
    if isinstance(expr, Perm):
        assert got == shuffled_top(space.size, expr.seed, _PERM_TOP)
    else:
        assert_matches_oracle(dict(zip(indices, got)), expr, space, indices)


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
