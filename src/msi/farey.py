"""Reduced fractions of bounded denominator and the well-spacing partition.

farey_enumerate(Q) lists the reduced fractions j/l with 1 < l <= Q in
(0, 1/2], ascending: the frequency set of the spectral expansion. They are
generated with the classical next-term recurrence of the ambient order-Q
sequence, so neighbor unimodularity (b*c - a*d = 1) and the gap law
1/(b*d) come for free.

spaced_pair_partition splits oriented pairs by their separation against a
threshold 1/A: difference mode keys on delta = left - right > 0, wrapped_sum
mode on sigma = distance of left + right to the nearest integer. All
comparisons are exact rational arithmetic (floats convert exactly), with
ties delta = 1/A landing NEAR; the strict > side is FAR.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

PAIR_MODES = ("difference", "wrapped_sum")


class FareyFraction(NamedTuple):
    """A reduced fraction num/den; a plain (num, den) tuple, so immutable and hashable."""

    num: int
    den: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class FareySequence:
    """Ascending reduced fractions with denominator in (1, Q], value in (0, 1/2]."""

    q: int
    fractions: tuple[FareyFraction, ...]

    def __len__(self) -> int:
        return len(self.fractions)

    def __iter__(self) -> Iterator[FareyFraction]:
        return iter(self.fractions)

    def __getitem__(self, i: int) -> FareyFraction:
        return self.fractions[i]


def farey_full(q: int) -> list[tuple[int, int]]:
    """The ambient order-q sequence on [0, 1] as (num, den) pairs.

    Next-term recurrence from 0/1 and 1/q: each step is one integer
    multiply-subtract, and consecutive terms are unimodular by construction.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    terms = [(0, 1), (1, q)]
    a, b, c, d = 0, 1, 1, q
    while c != d:
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        terms.append((c, d))
    return terms


def farey_columns(pairs: Iterable[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """num and den of (num, den) pairs (farey_full(q), a FareySequence) as int64 arrays."""
    flat = np.fromiter(chain.from_iterable(pairs), np.int64)
    num, den = flat.reshape(-1, 2).T.copy()
    return num, den


@lru_cache(maxsize=512)
def farey_enumerate(q: int) -> FareySequence:
    """All reduced j/l with 1 < l <= q and 0 < j/l <= 1/2, sorted ascending.

    Raises:
        ValueError: for q < 2 (no admissible denominator).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    out = []
    a, b, c, d = 0, 1, 1, q
    while 2 * c <= d:
        out.append(FareyFraction(c, d))
        if 2 * c == d:
            break
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return FareySequence(q, tuple(out))


def farey_count(q: int) -> int:
    """len(farey_enumerate(q)) without enumerating: (1 + sum_{2<=l<=q} phi(l)) / 2.

    Each l > 2 contributes phi(l)/2 reduced numerators j <= l/2, and l = 2
    contributes 1/2; a totient sieve costs O(q log log q).

    Raises:
        ValueError: for q < 2, as farey_enumerate does.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    phi = list(range(q + 1))
    for p in range(2, q + 1):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return (1 + sum(phi[2:])) // 2


def min_gap(seq: FareySequence) -> Fraction:
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
    threshold: Fraction  # 1/A
    near: tuple[tuple[int, int], ...]  # key <= 1/A
    far: tuple[tuple[int, int], ...]  # key > 1/A


def spaced_pair_partition(
    seq_left: FareySequence,
    seq_right: FareySequence,
    a: Union[float, int, Fraction],
    mode: str = "difference",
) -> PairPartition:
    """Partition oriented pairs into NEAR (key <= 1/A) and FAR (key > 1/A).

    Pairs are (i, k) with seq_left[i].value > seq_right[k].value; pairs are
    oriented so the difference is positive, and equal-valued pairs belong to
    the diagonal, never to this partition. difference mode keys on delta,
    wrapped_sum mode on sigma; the threshold comparison is exact.
    """
    if mode not in PAIR_MODES:
        raise ValueError(f"mode must be one of {PAIR_MODES}, got {mode!r}")
    if not a > 0:
        raise ValueError("spacing parameter A must be positive")
    threshold = 1 / Fraction(a)
    near: list[tuple[int, int]] = []
    far: list[tuple[int, int]] = []
    same = seq_left is seq_right or seq_left == seq_right
    for i, u in enumerate(seq_left.fractions):
        # ascending sequences: identical sequences need only k < i
        right_range = range(i) if same else range(len(seq_right))
        for k in right_range:
            v = seq_right[k]
            if not same and u.value <= v.value:
                continue
            key = delta_key(u, v) if mode == "difference" else sigma_key(u, v)
            (near if key <= threshold else far).append((i, k))
    return PairPartition(mode, threshold, tuple(near), tuple(far))
