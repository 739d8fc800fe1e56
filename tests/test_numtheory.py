import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringgraphs import numtheory as nt
from conftest import (
    naive_divisor_sum_proper,
    naive_factors,
    naive_is_prime,
    naive_order,
    naive_smooth_members,
)
from oracles import proper_divisor_sum


def test_is_prime_examples():
    assert nt.is_prime(2)
    assert nt.is_prime(257)
    assert not nt.is_prime(91)  # 7 * 13
    assert not nt.is_prime(1)


def test_is_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        nt.is_prime(0)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_factorize_roundtrip(n):
    fac = nt.factorize(n)
    assert math.prod(p**e for p, e in fac.factors) == n
    assert all(naive_is_prime(p) for p, _ in fac.factors)
    assert all(e >= 1 for _, e in fac.factors)
    assert list(fac.factors) == sorted(fac.factors)


def test_factorize_examples():
    assert nt.factorize(1).factors == ()
    assert nt.factorize(54).factors == ((2, 1), (3, 3))
    assert nt.factorize(21).factors == ((3, 1), (7, 1))
    assert naive_factors(54) == {2: 1, 3: 3}


def test_factorize_beyond_sieve():
    big = 1_048_583 * 1_048_589  # two primes just above the sieve bound
    fac = nt.factorize(big)
    assert fac.factors == ((1_048_583, 1), (1_048_589, 1))
    assert nt.is_prime(1_048_583)


# both sides of the least sieve (2^10), of the largest modulus the verify
# sweeps reach (2^17) and of the sieve bound (2^20)
_SIEVE_EDGES = (1023, 1024, 1025, 2**17 - 1, 2**17, 2**17 + 1, 2**20 - 1, 2**20, 2**20 + 1)
_SIEVE_ORDERS = {
    "ascending": _SIEVE_EDGES,
    "descending": _SIEVE_EDGES[::-1],
    "interleaved": (2**17, 1023, 2**20 + 1, 1025, 2**17 - 1, 2**20 - 1, 1024, 2**20, 2**17 + 1),
}


def _sieve_size(n: int) -> int:
    # the table a query of n needs: a power of two above n, from 2^10 to 2^20
    return min(max(1 << n.bit_length(), 1 << 10), nt.SIEVE_LIMIT)


@pytest.mark.parametrize("first", ["is_prime", "factorize"])
@pytest.mark.parametrize("order", sorted(_SIEVE_ORDERS))
def test_sieve_grows_with_the_values_asked(monkeypatch, order, first):
    # from no sieve, each query grows the kept table to the largest size
    # asked so far and never shrinks it; either query may be the first to
    # reach a size, and both agree with trial division at every step
    monkeypatch.setattr(nt, "_SIEVE", None)
    kept = 0
    for n in _SIEVE_ORDERS[order]:
        want_factors = tuple(sorted(naive_factors(n).items()))
        if first == "is_prime":
            assert nt.is_prime(n) == naive_is_prime(n), n
            assert nt.factorize(n).factors == want_factors, n
        else:
            assert nt.factorize(n).factors == want_factors, n
            assert nt.is_prime(n) == naive_is_prime(n), n
        kept = max(kept, _sieve_size(n))
        assert len(nt._SIEVE[0]) == kept, n


def test_sieve_is_a_prefix_of_the_full_sieve(monkeypatch):
    monkeypatch.setattr(nt, "_SIEVE", None)
    full_spf, full_primes = nt._sieve(nt.SIEVE_LIMIT)
    assert len(full_spf) == nt.SIEVE_LIMIT
    for limit in (1, 2, 1024, 1025, 2**17, 2**17 + 1, 2**20 - 1, 2**20, 2**20 + 1):
        monkeypatch.setattr(nt, "_SIEVE", None)
        spf, primes = nt._sieve(limit)
        size = _sieve_size(limit - 1)
        assert len(spf) == size, limit
        assert np.array_equal(spf, full_spf[:size]), limit
        assert np.array_equal(primes, full_primes[full_primes < size]), limit
        assert primes.tolist() == nt.primes_up_to(size - 1).tolist(), limit


def test_a_small_prime_query_builds_the_least_sieve(monkeypatch):
    monkeypatch.setattr(nt, "_SIEVE", None)
    assert nt.is_prime(7)
    assert len(nt._SIEVE[0]) <= 2**10
    assert nt.factorize(1000).factors == ((2, 3), (5, 3))
    assert len(nt._SIEVE[0]) <= 2**10


# the least strong pseudoprimes to the first twelve and thirteen prime bases
# (Sorenson and Webster 2017); Miller-Rabin on 2..41 is exact below PSI_13
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_exact_below_psi13():
    assert not nt.is_prime(PSI_12)
    assert nt.factorize(PSI_12).factors == ((399_165_290_221, 1), (798_330_580_441, 1))
    assert nt.is_prime(399_165_290_221) and nt.is_prime(798_330_580_441)
    # at psi_13 and above: a number that passes every base is not decided,
    # but a composite that a base exposes is still False
    for n in (PSI_13, 2**89 - 1):
        with pytest.raises(ValueError, match="exact only below"):
            nt.is_prime(n)
    assert not nt.is_prime(PSI_13 + 2)
    assert not nt.is_prime(2**89 + 1)


@pytest.mark.parametrize(
    "n, factors",
    [
        (2**20 - 1, ((3, 1), (5, 2), (11, 1), (31, 1), (41, 1))),
        (2**20, ((2, 20),)),
        (2**20 + 1, ((17, 1), (61681, 1))),
        (2**40 - 1, ((3, 1), (5, 2), (11, 1), (17, 1), (31, 1), (41, 1), (61681, 1))),
        (2**40 + 1, ((257, 1), (4_278_255_361, 1))),
        (1_048_583 * 1_048_589, ((1_048_583, 1), (1_048_589, 1))),
        (2**64 + 1, ((274_177, 1), (67_280_421_310_721, 1))),
        (2**200, ((2, 200),)),
        (6**50, ((2, 50), (3, 50))),
    ],
)
def test_factorize_at_the_sieve_edges(n, factors):
    # both sides of the sieve bound 2^20 and of its square, a product of two
    # primes just above the sieve, and numbers past int64, two of them high
    # powers of sieve primes
    assert nt.factorize(n).factors == factors
    assert math.prod(p**e for p, e in factors) == n
    assert all(nt.is_prime(p) for p, _ in factors)


@pytest.mark.slow
def test_prime_and_factorization_agree_full_sweep():
    # single factor with exponent 1 <=> prime, for every n up to 10^6
    for n in range(2, 10**6 + 1):
        fac = nt.factorize(n)
        single = len(fac.factors) == 1 and fac.factors[0][1] == 1
        assert single == nt.is_prime(n), n


def test_proper_divisor_sum_examples():
    assert proper_divisor_sum(6) == 6  # perfect number fixed point
    assert proper_divisor_sum(1) == 0
    assert proper_divisor_sum(0) == 0
    assert proper_divisor_sum(220) == 284  # amicable pair
    assert proper_divisor_sum(284) == 220
    assert naive_divisor_sum_proper(220) == 284


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=120, deadline=None)
def test_proper_divisor_sum_matches_enumeration(x):
    assert proper_divisor_sum(x) == naive_divisor_sum_proper(x)


def test_divisor_sum_table_matches_scalar():
    # whole ranges from 0, and ranges that start at, past and just below a
    # square, where the divisor sqrt(x) counts once
    for start, stop in [(0, 500), (0, 0), (0, 1), (0, 2), (1, 3), (24, 26),
                        (25, 26), (48, 50), (120, 121), (9000, 9400),
                        (999_900, 1_000_100)]:
        table = nt.proper_divisor_sums(start, stop)
        assert table.tolist() == [proper_divisor_sum(x) for x in range(start, stop)]


def test_is_primitive_root_examples():
    assert nt.is_primitive_root(2, 3)
    assert not nt.is_primitive_root(2, 7)
    assert nt.is_primitive_root(3, 7)
    assert naive_order(3, 7) == 6


def test_is_primitive_root_rejections():
    with pytest.raises(ValueError):
        nt.is_primitive_root(2, 8)  # not prime
    with pytest.raises(ValueError):
        nt.is_primitive_root(14, 7)  # 0 mod p


def test_primitive_root_matches_brute_force_order():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            assert nt.is_primitive_root(a, p) == (naive_order(a, p) == p - 1)


def test_primitive_root_count_is_phi():
    # classical count: phi(p-1) primitive roots mod p
    for p in nt.primes_up_to(2000):
        p = int(p)
        count = sum(1 for a in range(1, p) if nt.is_primitive_root(a, p))
        assert count == nt.euler_phi(p - 1), p


@pytest.mark.slow
def test_primitive_root_count_is_phi_to_ten_thousand():
    for p in nt.primes_up_to(10**4):
        p = int(p)
        count = sum(1 for a in range(1, p) if nt.is_primitive_root(a, p))
        assert count == nt.euler_phi(p - 1), p


def test_artin_fraction_among_first_primes():
    primes = nt.first_primes(10**4)
    count = sum(1 for p in primes if int(p) > 2 and nt.is_primitive_root(2, int(p)))
    assert abs(count / len(primes) - 0.3739558) < 0.02


def test_is_fermat_prime():
    assert nt.is_fermat_prime(257)
    assert nt.is_fermat_prime(65537)
    assert not nt.is_fermat_prime(9)
    assert [n for n in range(1, 300) if nt.is_fermat_prime(n)] == [3, 5, 17, 257]
    # 2 is prime but 1 is not a power 2^(2^k)
    assert not nt.is_fermat_prime(2)


def test_fermat_implies_one_plus_two_smooth():
    for n in (3, 5, 17, 257, 65537):
        assert nt.is_fermat_prime(n)
        assert nt.is_one_plus_smooth_prime(n, {2})


def test_one_plus_smooth_prime_examples():
    assert nt.is_one_plus_smooth_prime(163, {2, 3})
    assert not nt.is_one_plus_smooth_prime(11, {2, 3})
    assert nt.is_one_plus_smooth_prime(11, {2, 5})


def test_smooth_set_examples():
    assert nt.smooth_set({2}, 10).members == (1, 2, 4, 8)
    assert nt.smooth_set({3}, 100).members == (1, 3, 9, 27, 81)
    assert nt.smooth_set({2, 3}, 13).members == (1, 2, 3, 4, 6, 8, 9, 12)
    assert naive_smooth_members({2, 3}, 13) == [1, 2, 3, 4, 6, 8, 9, 12]


def test_smooth_set_membership_matches_naive():
    # members, non-members, 0, negatives and smooth values above the limit
    for primes, limit in (({2}, 1), ({2}, 10), ({2, 3}, 1000), ({3, 5, 7}, 3000)):
        s = nt.smooth_set(primes, limit)
        want = set(naive_smooth_members(primes, limit))
        for n in range(-20, 3 * limit + 20):
            assert (n in s.members) == (n in want)
    assert 16 not in nt.smooth_set({2}, 10).members


def test_double_smooth_set_examples():
    assert nt.double_smooth_set({3}, 100).members == (1, 2, 3, 6, 9, 18, 27, 54, 81)
    assert nt.double_smooth_set({2}, 8).members == (1, 2, 4, 8)
    assert nt.double_smooth_set({7}, 100).members == (1, 2, 7, 14, 49, 98)


@given(
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=500),
)
@settings(max_examples=80, deadline=None)
def test_double_smooth_contains_smooth(primes, limit):
    base = set(nt.smooth_set(primes, limit).members)
    doubled = set(nt.double_smooth_set(primes, limit).members)
    assert base <= doubled
    assert doubled == {m for m in naive_smooth_members(primes, limit)} | {
        2 * m for m in naive_smooth_members(primes, limit) if 2 * m <= limit
    }


def test_smooth_set_strictly_increasing_and_has_one():
    s = nt.smooth_set({2, 7}, 200)
    assert 1 in set(s.members)
    assert all(a < b for a, b in zip(s.members, s.members[1:]))


def test_first_primes():
    assert list(nt.first_primes(5)) == [2, 3, 5, 7, 11]
    assert len(nt.first_primes(10**4)) == 10**4
    assert int(nt.first_primes(10**4)[-1]) == 104_729


def test_first_primes_against_the_plain_sieve():
    # every k to p_2000 = 17389, across the switch from p_5 = 11 to the
    # Rosser bound at k = 6
    primes = nt.primes_up_to(17_389)
    assert len(primes) == 2000
    for k in range(2001):
        assert nt.first_primes(k).tolist() == primes[:k].tolist(), k
    assert len(nt.first_primes(-1)) == 0


@pytest.mark.skipif(
    not os.environ.get("RINGGRAPHS_EXTENDED"),
    reason="extended census of about a minute; set RINGGRAPHS_EXTENDED=1",
)
def test_artin_census_first_million_primes():
    from ringgraphs.survey import artin_census

    count, _ = artin_census(10**6)
    assert count == 374023
