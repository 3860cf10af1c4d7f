"""Reduced fractions of bounded denominator and the well-spacing partition.

farey_columns(Q) gives the reduced fractions j/l with 1 < l <= Q in
(0, 1/2], ascending, as int64 num/den columns: the frequency set of the
spectral expansion. They are generated with the classical next-term
recurrence of the ambient order-Q sequence, so neighbor unimodularity
(b*c - a*d = 1) and the gap law 1/(b*d) come for free.

The exact oracles min_gap and spaced_pair_partition read the same columns
and build Fractions once per call. pair_key keys an oriented pair u > v:
difference mode on delta = u - v > 0, wrapped_sum mode on sigma = distance
of u + v to the nearest integer. spaced_pair_partition splits the pairs
against the threshold 1/A in exact rational arithmetic (floats convert
exactly), with ties key = 1/A landing NEAR; the strict > side is FAR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

PAIR_MODES = ("difference", "wrapped_sum")


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


def _fractions(num: np.ndarray, den: np.ndarray) -> list[Fraction]:
    """The columns num/den as exact Fractions, for the oracles."""
    return list(map(Fraction, num.tolist(), den.tolist()))


def min_gap(num: np.ndarray, den: np.ndarray) -> Fraction:
    """Smallest difference of consecutive fractions num/den; at least 1/Q**2.

    Raises:
        ValueError: on columns with fewer than two fractions.
    """
    if len(num) < 2:
        raise ValueError("min_gap needs at least 2 fractions")
    fr = _fractions(num, den)
    return min(v - u for u, v in zip(fr, fr[1:]))


def pair_key(u: Fraction, v: Fraction, mode: str) -> Fraction:
    """Key of the oriented pair u > v: u - v (difference) or ||u + v|| in [0, 1/2] (wrapped_sum)."""
    if mode == "difference":
        return u - v
    if mode == "wrapped_sum":
        frac = (u + v) % 1
        return min(frac, 1 - frac)
    raise ValueError(f"mode must be one of {PAIR_MODES}, got {mode!r}")


@dataclass(frozen=True)
class PairPartition:
    """Oriented index pairs split at the spacing threshold 1/A."""

    mode: str
    near: tuple[tuple[int, int], ...]  # key <= 1/A
    far: tuple[tuple[int, int], ...]  # key > 1/A


def spaced_pair_partition(
    num: np.ndarray,
    den: np.ndarray,
    a: Union[float, int, Fraction],
    mode: str = "difference",
) -> PairPartition:
    """Partition oriented pairs into NEAR (key <= 1/A) and FAR (key > 1/A).

    Pairs are (i, k) with i > k, so num[i]/den[i] > num[k]/den[k] for
    ascending columns: pairs are oriented so the difference is positive,
    and equal-valued pairs belong to the diagonal, never to this partition.
    Each pair is keyed by pair_key in the given mode; the threshold
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
    fr = _fractions(num, den)
    for i, u in enumerate(fr):
        for k in range(i):
            (near if pair_key(u, fr[k], mode) <= threshold else far).append((i, k))
    return PairPartition(mode, tuple(near), tuple(far))
