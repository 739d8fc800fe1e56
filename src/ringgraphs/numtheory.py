"""Integer predicates and sequences: primality, factorization, divisor sums,
primitive roots, Fermat/Pierpont-style primes, smooth and double-smooth sets.

One smallest-prime-factor sieve is kept, built only as far as the values
asked (a power of two from 2^10 up to 2^20) and rebuilt larger when a larger
value comes.  Above 2^20, primality is Miller-Rabin on thirteen bases, exact
below psi_13 = 3,317,044,064,679,887,385,961,981, and factorization is one
walk that strips the sieve primes from a composite, or splits it at a rho
factor.  The rest are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log

import numpy as np

SIEVE_LIMIT = 1 << 20
_SIEVE_MIN = 1 << 10
_SIEVE: tuple[np.ndarray, np.ndarray] | None = None


def _sieve(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The kept smallest-prime-factor table (0 for n < 2) and its primes.

    The table covers the smallest power of two >= limit, at least 2^10 and
    at most SIEVE_LIMIT; a kept table that falls short is rebuilt at that
    size, so a smaller limit reuses the larger table."""
    global _SIEVE
    size = min(max(1 << (limit - 1).bit_length(), _SIEVE_MIN), SIEVE_LIMIT)
    if _SIEVE is None or len(_SIEVE[0]) < size:
        spf = np.zeros(size, dtype=np.int32)
        for p in range(2, isqrt(size - 1) + 1):
            if spf[p] == 0:
                block = spf[p * p :: p]
                block[block == 0] = p
        primes = np.flatnonzero(spf == 0)[2:]
        spf[primes] = primes
        _SIEVE = spf, primes
    return _SIEVE


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending array of primes <= limit (plain Boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def first_primes(k: int) -> np.ndarray:
    """The first k primes."""
    # Rosser: p_k < k (ln k + ln ln k) for k >= 6, and p_5 = 11
    bound = int(k * (log(k) + log(log(k)))) if k >= 6 else 11
    return primes_up_to(bound)[: max(k, 0)]


# The first thirteen primes: as Miller-Rabin bases they are exact below
# psi_13, the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int) -> bool:
    # n odd and past every witness
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality of n >= 1 (1 is not prime), exact below psi_13.  At or above
    psi_13, a number that passes every Miller-Rabin base raises ValueError."""
    if n < 1:
        raise ValueError("is_prime expects a positive integer")
    if n < SIEVE_LIMIT:
        return bool(_sieve(n + 1)[0][n] == n)
    if n % 2 == 0 or not _miller_rabin(n):
        return False
    if n >= _PSI_13:
        raise ValueError(f"{n} passes Miller-Rabin, which is exact only below {_PSI_13}")
    return True


def _rho_split(n: int) -> int:
    # Brent's cycle variant; n odd composite, no factor below the sieve
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class PrimeFactorization:
    """n together with its sorted (prime, exponent) pairs; n=1 has no factors."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> PrimeFactorization:
    """Full prime factorization by a stack of cofactors: below 2^20 a walk
    down the sieve; above it a prime counts once, and a composite loses
    every sieve prime that divides it, or with none splits at a rho factor.
    The sieve is asked for min(n + 1, 2^20), which holds every cofactor's
    walk and, for n above it, every trial prime.  A cofactor that is_prime
    cannot decide raises its ValueError."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    spf, primes = _sieve(min(n + 1, SIEVE_LIMIT))
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m < SIEVE_LIMIT:
            while m > 1:
                p = int(spf[m])
                counts[p] = counts.get(p, 0) + 1
                m //= p
        elif is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            # a composite has a factor <= sqrt(m); int64 holds m below 2^63
            ps = primes[: np.searchsorted(primes, min(isqrt(m), SIEVE_LIMIT), side="right")]
            hits = ps[m % (ps if m < 1 << 63 else ps.astype(object)) == 0].tolist()
            for p in hits:
                while m % p == 0:
                    m //= p
                    counts[p] = counts.get(p, 0) + 1
            if hits:
                stack.append(m)
            else:
                d = _rho_split(m)
                stack += [d, m // d]
    return PrimeFactorization(n, tuple(sorted(counts.items())))


@lru_cache(maxsize=4096)
def _distinct_prime_factors(n: int) -> tuple[int, ...]:
    return factorize(n).primes()


def euler_phi(n: int) -> int:
    """Euler totient via the product formula."""
    out = n
    for p in _distinct_prime_factors(n):
        out -= out // p
    return out


def proper_divisor_sums(start: int, stop: int) -> np.ndarray:
    """Table s[x - start] = the sum of the divisors d < x of x (0 for x in
    {0, 1}), for start <= x < stop.

    Each divisor d <= sqrt(x) of x pairs with x/d, so the work is one
    strided pass per d below sqrt(stop)."""
    s = np.zeros(max(stop - start, 0), dtype=np.int64)
    s[max(2 - start, 0) :] = 1  # the divisor 1 of every x >= 2
    for d in range(2, isqrt(max(stop - 1, 0)) + 1):
        q = max(d, -(-start // d))  # the cofactor of the first multiple
        block = s[d * q - start :: d]
        block += d + np.arange(q, q + len(block))
        if q == d:
            block[0] -= d  # x = d^2 has the divisor d once
    return s


def is_primitive_root(a: int, p: int) -> bool:
    """True iff a generates the multiplicative group mod prime p: a^((p-1)/q)
    is not 1 for any prime q dividing p-1, so the full order is not needed."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a %= p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    m = p - 1
    for q in _distinct_prime_factors(m):
        if pow(a, m // q, p) == 1:
            return False
    return True


def is_fermat_prime(n: int) -> bool:
    """True iff n is prime and n-1 = 2^(2^k) for some k >= 0."""
    if n < 1:
        raise ValueError("is_fermat_prime expects a positive integer")
    m = n - 1
    if m < 2 or m & (m - 1):
        return False
    e = m.bit_length() - 1  # m = 2^e
    if e & (e - 1):
        return False
    return is_prime(n)


def is_smooth(n: int, primes: frozenset[int] | set[int]) -> bool:
    """True iff every prime factor of n lies in the given set (1 is smooth)."""
    if n < 1:
        raise ValueError("is_smooth expects a positive integer")
    return all(p in primes for p in _distinct_prime_factors(n))


def is_one_plus_smooth_prime(n: int, primes: frozenset[int] | set[int]) -> bool:
    """True iff n is prime and n-1 is smooth over the given prime set."""
    if not primes:
        raise ValueError("prime set must be nonempty")
    return is_prime(n) and is_smooth(n - 1, primes)


@dataclass(frozen=True)
class SmoothSet:
    """Sorted members <= limit whose prime factors all lie in base_primes."""

    base_primes: frozenset[int]
    limit: int
    members: tuple[int, ...]


def smooth_set(primes: set[int] | frozenset[int], limit: int) -> SmoothSet:
    """All products of powers of the given primes up to limit, including 1."""
    if not primes:
        raise ValueError("prime set must be nonempty")
    if limit < 1:
        raise ValueError("limit must be positive")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for p in primes:
            w = v * p
            if w <= limit and w not in seen:
                seen.add(w)
                stack.append(w)
    return SmoothSet(frozenset(primes), limit, tuple(sorted(seen)))


def double_smooth_set(primes: set[int] | frozenset[int], limit: int) -> SmoothSet:
    """The smooth members and their doubles, truncated at limit."""
    base = smooth_set(primes, limit)
    out = set(base.members) | {2 * v for v in base.members if 2 * v <= limit}
    return SmoothSet(base.base_primes, limit, tuple(sorted(out)))
