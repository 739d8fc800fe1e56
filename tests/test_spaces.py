import pytest

from ringgraphs import spaces
from ringgraphs.spaces import (
    BitVec,
    Mat2,
    PolyQuot,
    UpperTri2,
    Zn,
    ZnFromTwo,
    ZnNonzero,
    ZnUnits,
    parse_space,
)


def test_sizes():
    assert Zn(5).size == 5
    assert Mat2(5).size == 625
    assert BitVec(9).size == 512
    assert ZnNonzero(7).size == 6
    assert ZnUnits(15).size == 8
    assert ZnFromTwo(6).size == 4
    assert UpperTri2(5).size == 125
    assert PolyQuot(5, 6).size == 15625


def test_from_two_needs_three():
    with pytest.raises(ValueError):
        ZnFromTwo(2)


def test_size_cap():
    with pytest.raises(ValueError):
        Zn((1 << 25) + 1)
    with pytest.raises(ValueError):
        BitVec(26)
    Zn(1 << 25)  # exactly at the cap is fine


def test_index_examples():
    assert Zn(7).index_of(spaces.State(Zn(7), 3)) == 3
    assert Zn(7).state_at(3).payload == 3
    assert ZnNonzero(7).state_at(0).payload == 1
    assert ZnUnits(15).state_at(0).payload == 1
    assert PolyQuot(5, 6).index_of(spaces.State(PolyQuot(5, 6), (0,) * 6)) == 0


def test_units_enumeration():
    assert [s.payload for s in ZnUnits(8).enumerate()] == [1, 3, 5, 7]
    assert [s.payload for s in ZnUnits(15).enumerate()] == [1, 2, 4, 7, 8, 11, 13, 14]


def test_from_two_enumeration():
    assert [s.payload for s in ZnFromTwo(6).enumerate()] == [2, 3, 4, 5]


def test_bitvec_enumeration():
    assert [s.payload for s in BitVec(2).enumerate()] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_matrix_identity_roundtrip():
    sp = Mat2(2)
    idx = sp.payload_to_index((1, 0, 0, 1))
    assert sp.index_to_payload(idx) == (1, 0, 0, 1)


@pytest.mark.parametrize(
    "space",
    [Zn(7), ZnNonzero(7), ZnUnits(7), ZnUnits(12), ZnFromTwo(7), Mat2(5), Mat2(7),
     UpperTri2(7), PolyQuot(5, 4), PolyQuot(3, 4), PolyQuot(7, 3), BitVec(10),
     Zn(1), ZnUnits(1)],
)
def test_index_bijection_roundtrip(space):
    seen = set()
    for i in range(space.size):
        state = space.state_at(i)
        assert space.index_of(state) == i
        seen.add(state.payload)
    assert len(seen) == space.size  # pairwise distinct payloads
    assert space.payloads() == [s.payload for s in space.enumerate()]


def test_units_equal_nonzero_for_primes():
    for p in (2, 3, 5, 7, 11, 13):
        units = [s.payload for s in ZnUnits(p).enumerate()]
        nonzero = [s.payload for s in ZnNonzero(p).enumerate()]
        assert units == nonzero


def test_out_of_space_rejected():
    with pytest.raises(ValueError):
        Zn(5).state_at(5)
    with pytest.raises(ValueError):
        Zn(5).index_of(spaces.State(Zn(5), 7))
    with pytest.raises(ValueError):
        ZnUnits(8).index_of(spaces.State(ZnUnits(8), 4))
    with pytest.raises(ValueError):
        Mat2(5).payload_to_index((5, 0, 0, 0))
    with pytest.raises(ValueError):
        UpperTri2(5).payload_to_index((1, 2, 3, 4))  # lower-left must be 0


def test_index_of_checks_space_identity():
    with pytest.raises(ValueError):
        Zn(5).index_of(spaces.State(Zn(6), 3))


def test_parse_space():
    assert parse_space("zn:31") == Zn(31)
    assert parse_space("znz:7") == ZnNonzero(7)
    assert parse_space("units:15") == ZnUnits(15)
    assert parse_space("from2:9") == ZnFromTwo(9)
    assert parse_space("mat2:5") == Mat2(5)
    assert parse_space("ut2:5") == UpperTri2(5)
    assert parse_space("poly:5:6") == PolyQuot(5, 6)
    assert parse_space("bits:9") == BitVec(9)
    with pytest.raises(ValueError):
        parse_space("ring:5")
    with pytest.raises(ValueError):
        parse_space("poly:5")
    with pytest.raises(ValueError):
        parse_space("zn:abc")
