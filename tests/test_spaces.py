from dataclasses import fields

import numpy as np
import pytest

from ringgraphs.spaces import (
    SPACE_KINDS,
    BitVec,
    DigitSpace,
    Mat2,
    PolyQuot,
    UpperTri2,
    Zn,
    ZnFromTwo,
    ZnNonzero,
    ZnUnits,
    parse_space,
)

from conftest import run_under_rlimit
from oracles import (
    State,
    enumerate_states,
    index_of,
    index_to_payload,
    payload_to_index,
    state_at,
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


# the smallest invalid specifier of each kind, and the matrix kinds far above
# the cap: the exact message parse_space raises
CAP = "above the cap 33554432"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("zn:0", "n must be >= 1"),
        ("znz:1", "nonzero residues need n >= 2"),
        ("units:0", "n must be >= 1"),
        ("from2:2", "the {2..n-1} space needs n >= 3"),
        ("mat2:0", "n must be >= 1"),
        ("ut2:0", "n must be >= 1"),
        ("poly:0:3", "need n >= 1 and k >= 1"),
        ("poly:3:0", "need n >= 1 and k >= 1"),
        ("bits:0", "width must be >= 1"),
        (f"mat2:{10**9}", f"space mat2:{10**9} has {10**36} states, {CAP}"),
        (f"ut2:{10**12}", f"space ut2:{10**12} has {10**36} states, {CAP}"),
    ],
)
def test_invalid_space_messages(spec, message):
    with pytest.raises(ValueError) as exc:
        parse_space(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", [f"poly:2:{10**6}", f"bits:{10**6}"])
def test_cap_message_for_unprintable_counts(spec):
    # far above the cap the check comes before any place value is built;
    # 2^1000000 has more digits than Python prints (4300), so the message
    # gives the count by its bit length
    with pytest.raises(ValueError) as exc:
        parse_space(spec)
    assert str(exc.value) == f"space {spec} has at least 2^1000000 states, {CAP}"


def test_far_off_digit_space_is_rejected_before_its_count_is_built():
    # 1000000^1000000 has about 19.9 million bits, which take seconds to
    # build; the cap check rejects it from the bound 2^(1000000 * 19) first
    code = (
        "from ringgraphs.spaces import parse_space\n"
        "try:\n"
        "    parse_space('poly:1000000:1000000')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    got = run_under_rlimit(code, "RLIMIT_CPU", 3)
    assert got == f"space poly:1000000:1000000 has at least 2^19000000 states, {CAP}\n"


def test_units_space_past_2_51_is_rejected_before_n_is_factored():
    # phi(n) >= sqrt(n/2) puts units:N over the cap for N > 2^51; the first
    # N is a strong pseudoprime to the bases 2..37, and the second the
    # product of two primes just above 2^80 and 2^81, which rho would take
    # minutes to split, so the child runs under a CPU-time limit
    code = (
        "from ringgraphs.spaces import parse_space\n"
        "for n in (318665857834031151167461,\n"
        "          2923003274661805836407421649242809468366377451741):\n"
        "    try:\n"
        "        parse_space(f'units:{n}')\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    got = run_under_rlimit(code, "RLIMIT_CPU", 3)
    assert got == (
        f"space units:318665857834031151167461 has at least 2^38 states, {CAP}\n"
        "space units:2923003274661805836407421649242809468366377451741 has at least"
        f" 2^80 states, {CAP}\n"
    )


def test_units_cap_at_2_51():
    # the last N the bound does not decide is factored, and its phi is given
    with pytest.raises(ValueError) as exc:
        ZnUnits(2**51)
    assert str(exc.value) == f"space units:{2**51} has {2**50} states, {CAP}"
    with pytest.raises(ValueError) as exc:
        ZnUnits(2**51 + 1)
    assert str(exc.value) == f"space units:{2**51 + 1} has at least 2^25 states, {CAP}"


def test_index_examples():
    assert index_of(Zn(7), State(Zn(7), 3)) == 3
    assert state_at(Zn(7), 3).payload == 3
    assert state_at(ZnNonzero(7), 0).payload == 1
    assert state_at(ZnUnits(15), 0).payload == 1
    assert index_of(PolyQuot(5, 6), State(PolyQuot(5, 6), (0,) * 6)) == 0
    assert Mat2(5).pack((1, 2, 3, 4)) == 1 * 125 + 2 * 25 + 3 * 5 + 4
    assert UpperTri2(5).digits(1 * 25 + 2 * 5 + 4) == (1, 2, 0, 4)
    assert PolyQuot(5, 3).digits(1 + 2 * 5 + 3 * 25) == (1, 2, 3)
    assert BitVec(4).pack((1, 0, 1, 1)) == 0b1011


def test_units_enumeration():
    assert [s.payload for s in enumerate_states(ZnUnits(8))] == [1, 3, 5, 7]
    assert [s.payload for s in enumerate_states(ZnUnits(15))] == [1, 2, 4, 7, 8, 11, 13, 14]


def test_from_two_enumeration():
    assert [s.payload for s in enumerate_states(ZnFromTwo(6))] == [2, 3, 4, 5]


def test_bitvec_enumeration():
    assert [s.payload for s in enumerate_states(BitVec(2))] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_matrix_identity_roundtrip():
    sp = Mat2(2)
    idx = payload_to_index(sp, (1, 0, 0, 1))
    assert index_to_payload(sp, idx) == (1, 0, 0, 1)
    assert sp.pack((1, 0, 0, 1)) == idx
    assert sp.digits(idx) == (1, 0, 0, 1)


@pytest.mark.parametrize(
    "space",
    [Zn(7), ZnNonzero(7), ZnUnits(7), ZnUnits(12), ZnFromTwo(7), Mat2(5), Mat2(7),
     UpperTri2(7), PolyQuot(5, 4), PolyQuot(3, 4), PolyQuot(7, 3), BitVec(10),
     Zn(1), ZnUnits(1)],
)
def test_index_bijection_roundtrip(space):
    seen = set()
    for i in range(space.size):
        state = state_at(space, i)
        assert index_of(space, state) == i
        seen.add(state.payload)
    assert len(seen) == space.size  # pairwise distinct payloads
    payloads = [s.payload for s in enumerate_states(space)]
    # the layout, one index at a time and as whole columns
    rows = payloads if isinstance(space, DigitSpace) else [(p,) for p in payloads]
    assert [tuple(space.digits(i)) for i in range(space.size)] == rows
    assert [space.pack(r) for r in rows] == list(range(space.size))
    columns = space.digits(np.arange(space.size, dtype=np.int64))
    assert list(zip(*(c.tolist() for c in columns))) == rows
    assert np.array_equal(space.pack(columns), np.arange(space.size))


@pytest.mark.parametrize(
    "space", [Zn(12), ZnNonzero(12), ZnFromTwo(12), ZnUnits(12), ZnUnits(1), ZnNonzero(2)]
)
def test_residue_pack_marks_escapes(space):
    residues = np.arange(space.n, dtype=np.int64)
    want = []
    for r in range(space.n):
        try:
            want.append(payload_to_index(space, r))
        except ValueError:
            want.append(-1)
    assert space.pack((residues,)).tolist() == want


# n at both sides of the 64-bit word edges of the units rank lookup, a
# prime, a prime power, and the product of the primes up to 13
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 1009, 3**7, 30030])
def test_units_rank_lookup_matches_oracle(n):
    space = ZnUnits(n)
    want = []
    for r in range(n):
        try:  # a non-unit escapes
            want.append(index_of(space, State(space, r)))
        except ValueError:
            want.append(-1)
    assert (-1 in want) == (n > 1)
    assert space.pack((np.arange(n, dtype=np.int64),)).tolist() == want
    assert [int(space.pack((r,))) for r in range(n)] == want
    members = space.digits(np.arange(space.size, dtype=np.int64))[0]
    assert members.tolist() == [state_at(space, i).payload for i in range(space.size)]


def test_units_layout_across_its_blocks():
    # the layout is built one block of 2^20 residues at a time; 2*3*5^2*7*
    # 11*13*17 spans three blocks, and its members and ranks are checked
    # at every residue against gcd and a running count
    n = 2552550
    space = ZnUnits(n)
    residues = np.arange(n, dtype=np.int64)
    unit = np.gcd(residues, n) == 1
    members = space.digits(np.arange(space.size, dtype=np.int64))[0]
    assert np.array_equal(members, np.flatnonzero(unit))
    assert np.array_equal(space.pack((residues,)), np.where(unit, np.cumsum(unit) - 1, -1))


def test_units_equal_nonzero_for_primes():
    for p in (2, 3, 5, 7, 11, 13):
        units = [s.payload for s in enumerate_states(ZnUnits(p))]
        nonzero = [s.payload for s in enumerate_states(ZnNonzero(p))]
        assert units == nonzero


def test_out_of_space_rejected():
    with pytest.raises(ValueError):
        state_at(Zn(5), 5)
    with pytest.raises(ValueError):
        index_of(Zn(5), State(Zn(5), 7))
    with pytest.raises(ValueError):
        index_of(ZnUnits(8), State(ZnUnits(8), 4))
    with pytest.raises(ValueError):
        payload_to_index(Mat2(5), (5, 0, 0, 0))
    with pytest.raises(ValueError):
        payload_to_index(UpperTri2(5), (1, 2, 3, 4))  # lower-left must be 0


def test_index_of_checks_space_identity():
    with pytest.raises(ValueError):
        index_of(Zn(5), State(Zn(6), 3))


def test_residue_kinds_start_at_first_plus_one():
    # first + 1 is the smallest modulus the constructor accepts
    for cls in (Zn, ZnNonzero, ZnFromTwo, ZnUnits):
        cls(cls.first + 1)
        with pytest.raises(ValueError):
            cls(cls.first)
    assert [c.first + 1 for c in (Zn, ZnNonzero, ZnUnits, ZnFromTwo)] == [1, 2, 1, 3]


def test_parse_space():
    assert parse_space("zn:31") == Zn(31)
    assert parse_space("znz:7") == ZnNonzero(7)
    assert parse_space("units:15") == ZnUnits(15)
    assert parse_space("from2:9") == ZnFromTwo(9)
    assert parse_space("mat2:5") == Mat2(5)
    assert parse_space("ut2:5") == UpperTri2(5)
    assert parse_space("poly:5:6") == PolyQuot(5, 6)
    assert parse_space("bits:9") == BitVec(9)
    # every kind: spec() is the kind and each field, and parses back
    for kind, cls in SPACE_KINDS.items():
        space = cls(*(5 for _ in fields(cls)))
        assert space.kind == kind
        assert space.spec() == ":".join([kind] + ["5"] * len(fields(cls)))
        assert parse_space(space.spec()) == space
    with pytest.raises(ValueError, match=r"^unknown space kind 'ring' in 'ring:5'$"):
        parse_space("ring:5")
    with pytest.raises(ValueError, match=r"^space kind 'poly' takes 2 integer argument\(s\)$"):
        parse_space("poly:5")
    with pytest.raises(ValueError, match=r"^space kind 'zn' takes 1 integer argument\(s\)$"):
        parse_space("zn:5:2")
    with pytest.raises(ValueError, match=r"^bad space specifier 'zn:abc': invalid literal"):
        parse_space("zn:abc")
