#!/usr/bin/env python3
"""Reduced fractions of bounded denominator and the well-spacing partition.

The decomposition's frequency set is the reduced fractions j/l <= 1/2 with
l <= Q. Neighbors are unimodular, gaps are exactly 1/(b d), and the minimal
gap is at least 1/Q^2, the spacing that makes the large-sieve style bound
on the well-spaced pairs work.
"""

from fractions import Fraction

from msi import farey_columns, min_gap, pair_key, spaced_pair_partition

num, den = farey_columns(8)
names = [f"{a}/{b}" for a, b in zip(num.tolist(), den.tolist())]
vals = [Fraction(a, b) for a, b in zip(num.tolist(), den.tolist())]
print("order 8 fractions:", " ".join(names))
print("min gap:", min_gap(num, den), ">= 1/64")

# gaps of consecutive fractions are exactly 1/(product of denominators)
for u, v in zip(vals, vals[1:]):
    assert v - u == Fraction(1, u.denominator * v.denominator)

# Pairs are oriented so the difference delta is positive, then split at 1/A:
# separation <= 1/A is NEAR (the sign-controlled regime), > 1/A is FAR
# (controlled by the well-spacing bound instead).
a = 12
part = spaced_pair_partition(num, den, a, mode="difference")
print(f"\nA = {a}, threshold 1/A = 1/{a}")
print(f"near pairs: {len(part.near)}, far pairs: {len(part.far)}")
for i, k in part.near:
    print(f"  NEAR  {names[i]} - {names[k]} = {pair_key(vals[i], vals[k], 'difference')}")

# wrapped_sum mode keys on the distance of the SUM to the nearest integer
part_s = spaced_pair_partition(num, den, a, mode="wrapped_sum")
sample = part_s.near[:4]
for i, k in sample:
    print(f"  NEAR(sigma)  {names[i]} + {names[k]} -> {pair_key(vals[i], vals[k], 'wrapped_sum')}")

# Equal fractions belong to the diagonal, never to the partition; their
# sigma key would be 0, below any finite threshold.
half = vals[-1]
print("\nsigma key of (1/2, 1/2):", pair_key(half, half, "wrapped_sum"), "(diagonal pair, key 0 is NEAR for any finite A)")

# Sorted-index spacing: the n-th and m-th fractions differ by at least
# (n - m) times the minimal gap, which numbers the family 1/A-well-spaced.
g = min_gap(num, den)
assert all(
    vals[n] - vals[m] >= (n - m) * g for n in range(len(vals)) for m in range(n)
)
print("sorted-index spacing holds; implied admissible A <=", 1 / g)
