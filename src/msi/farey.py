"""Reduced fractions of bounded denominator and the well-spacing partition.

farey_columns(Q) gives the reduced fractions j/l with 1 < l <= Q in
(0, 1/2], ascending, as int64 num/den columns: the frequency set of the
spectral expansion. They are generated with the classical next-term
recurrence of the ambient order-Q sequence, so neighbor unimodularity
(b*c - a*d = 1) and the gap law 1/(b*d) come for free. farey_enumerate(Q)
is the same sequence as FareyFraction tuples, for the CLI and the exact
oracles.

spaced_pair_partition splits oriented pairs by their separation against a
threshold 1/A: difference mode keys on delta = left - right > 0, wrapped_sum
mode on sigma = distance of left + right to the nearest integer. All
comparisons are exact rational arithmetic (floats convert exactly), with
ties delta = 1/A landing NEAR; the strict > side is FAR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

PAIR_MODES = ("difference", "wrapped_sum")


class FareyFraction(NamedTuple):
    """A reduced fraction num/den; a plain (num, den) tuple, so immutable and hashable."""

    num: int
    den: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


def _walk(q: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 num and den of the order-q sequence from 0/1 up to 1/stop.

    Next-term recurrence from 0/1 and 1/q: each step is one integer
    multiply-subtract, and consecutive terms are unimodular by construction.
    1/stop must be a term (stop <= q).
    """
    nums, dens = [0, 1], [1, q]
    a, b, c, d = 0, 1, 1, q
    while stop * c != d:
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        nums.append(c)
        dens.append(d)
    return np.array(nums, np.int64), np.array(dens, np.int64)


def farey_full(q: int) -> tuple[np.ndarray, np.ndarray]:
    """num and den (int64) of the ambient order-q sequence on [0, 1]."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return _walk(q, 1)


def farey_columns(q: int) -> tuple[np.ndarray, np.ndarray]:
    """num and den (int64) of all reduced j/l with 1 < l <= q and 0 < j/l <= 1/2, ascending.

    Raises:
        ValueError: for q < 2 (no admissible denominator).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    num, den = _walk(q, 2)
    return num[1:], den[1:]


def farey_enumerate(q: int) -> tuple[FareyFraction, ...]:
    """farey_columns(q) as FareyFraction tuples."""
    num, den = farey_columns(q)
    return tuple(map(FareyFraction, num.tolist(), den.tolist()))


def farey_count(q: int) -> int:
    """len(farey_columns(q)[0]) without enumerating: (1 + sum_{2<=l<=q} phi(l)) / 2.

    Each l > 2 contributes phi(l)/2 reduced numerators j <= l/2, and l = 2
    contributes 1/2; a totient sieve costs O(q log log q).

    Raises:
        ValueError: for q < 2, as farey_columns does.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    phi = list(range(q + 1))
    for p in range(2, q + 1):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return (1 + sum(phi[2:])) // 2


def min_gap(seq: Sequence[FareyFraction]) -> Fraction:
    """Smallest difference of consecutive fractions; at least 1/Q**2.

    Raises:
        ValueError: on sequences with fewer than two fractions.
    """
    if len(seq) < 2:
        raise ValueError("min_gap needs at least 2 fractions")
    return min(
        seq[i + 1].value - seq[i].value for i in range(len(seq) - 1)
    )


def delta_key(hi: FareyFraction, lo: FareyFraction) -> Fraction:
    """Separation hi - lo of an oriented pair."""
    return hi.value - lo.value


def sigma_key(a: FareyFraction, b: FareyFraction) -> Fraction:
    """Distance of a + b to the nearest integer, in [0, 1/2]."""
    s = a.value + b.value
    frac = s - (s.numerator // s.denominator)
    return min(frac, 1 - frac)


@dataclass(frozen=True)
class PairPartition:
    """Oriented index pairs split at the spacing threshold 1/A."""

    mode: str
    near: tuple[tuple[int, int], ...]  # key <= 1/A
    far: tuple[tuple[int, int], ...]  # key > 1/A


def spaced_pair_partition(
    seq: Sequence[FareyFraction],
    a: Union[float, int, Fraction],
    mode: str = "difference",
) -> PairPartition:
    """Partition oriented pairs into NEAR (key <= 1/A) and FAR (key > 1/A).

    Pairs are (i, k) with i > k, so seq[i].value > seq[k].value for an
    ascending sequence: pairs are oriented so the difference is positive,
    and equal-valued pairs belong to the diagonal, never to this partition.
    difference mode keys on delta, wrapped_sum mode on sigma; the threshold
    comparison is exact.

    Raises:
        ValueError: for an unknown mode, or unless A is finite and above 0.
    """
    if mode not in PAIR_MODES:
        raise ValueError(f"mode must be one of {PAIR_MODES}, got {mode!r}")
    if not 0 < a < math.inf:
        raise ValueError(f"spacing parameter A={a} must be finite and above 0")
    threshold = 1 / Fraction(a)
    near: list[tuple[int, int]] = []
    far: list[tuple[int, int]] = []
    for i, u in enumerate(seq):
        for k in range(i):
            v = seq[k]
            key = delta_key(u, v) if mode == "difference" else sigma_key(u, v)
            (near if key <= threshold else far).append((i, k))
    return PairPartition(mode, tuple(near), tuple(far))
