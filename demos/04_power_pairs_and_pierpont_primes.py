#!/usr/bin/env python3
"""Two commuting power maps x^2 and x^3 on the nonzero residues connect the
graph exactly at primes n whose predecessor n-1 factors over {2, 3}.
Swapping the cube for a fifth power replaces {2, 3} with {2, 5}.
"""

from ringgraphs.numtheory import is_one_plus_smooth_prime
from ringgraphs.verify import verify_pierpont, verify_power_pair

print("x^2, x^3 connectivity vs primes with n-1 smooth over {2,3}:")
print(" ", verify_pierpont(600, space_kind="znz").to_line())
listed = [n for n in range(2, 601) if is_one_plus_smooth_prime(n, {2, 3})]
print("  those n:", listed)

print()
print("x^2, x^5 connectivity vs primes with n-1 smooth over {2,5}:")
print(" ", verify_power_pair(2, 5, 101).to_line())
listed = [n for n in range(2, 102) if is_one_plus_smooth_prime(n, {2, 5})]
print("  those n:", listed)

print()
print("the same question on the vertex set {2..n-1} (both readings agree):")
print(" ", verify_pierpont(300, space_kind="from2").to_line())
