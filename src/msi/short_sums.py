"""Triangular-weight short sums around a center x and their expected value.

The central object is the weighted sum

    S_f(x, h) = sum over |n - x| <= h of (1 - |n - x|/h) f(n),

its equivalent double-average form (1/h) sum_{m <= h} sum_{|n-x| < m} f(n),
and the expected value M_f(x, h) = h * sum_{d <= x+h} g(d)/d for f = g*1.
Everything here is exact rational arithmetic, the reference the tests hold
the integer sweep kernel of msi.integral to; literal_mean_square is the
whole sweep, center by center.

Window centers with x <= h clamp the sum to n >= 1; the weighted counts
chi_tilde_q are exact and q-periodic in x once x > h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FunctionTable, Rational, SupportCutoff, divisors


@dataclass(frozen=True)
class FejerWindow:
    """Even half-width h of the triangular window weight(s) = 1 - |s|/h.

    h must be even: the half-frequency term of the window's finite Fourier
    expansion then vanishes identically, which the spectral side relies on.
    Odd h is rejected here, once, for the whole artifact.
    """

    h: int

    def __post_init__(self):
        if self.h < 2 or self.h % 2 != 0:
            raise ValueError(f"window half-width must be a positive even integer, got {self.h}")

    def weight(self, s: int) -> Fraction:
        """Triangular weight 1 - |s|/h for |s| <= h, else 0."""
        a = abs(s)
        if a >= self.h:
            return Fraction(0)
        return 1 - Fraction(a, self.h)


class PrefixSums:
    """p0[n] = sum_{m<=n} f(m) and p1[n] = sum_{m<=n} m*f(m), exact.

    Built once in O(max_n); turns every triangular short sum into two affine
    combinations of four prefix reads. Immutable after construction.
    """

    __slots__ = ("max_n", "p0", "p1")

    def __init__(self, f: FunctionTable):
        p0: list[Rational] = [0] * (f.max_n + 1)
        p1: list[Rational] = [0] * (f.max_n + 1)
        for n in range(1, f.max_n + 1):
            v = f[n]
            p0[n] = p0[n - 1] + v
            p1[n] = p1[n - 1] + n * v
        self.max_n = f.max_n
        self.p0 = tuple(p0)
        self.p1 = tuple(p1)


def fejer_short_sum(
    f: FunctionTable,
    x: int,
    w: FejerWindow,
    sums: PrefixSums | None = None,
) -> Rational:
    """Triangular short sum of f around x, O(1) per center given PrefixSums.

    Splitting at the center, the weight is affine in n on either side:
    1 - (x-n)/h on [x-h, x] and 1 + (x-n)/h on [x, x+h], so the sum is an
    affine combination of prefix reads of f and n*f. Contributions from
    n < 1 are clamped to zero.

    Args:
        f: Table covering at least [1, x + h].
        x: Window center, x >= 1.
        w: Window half-width.
        sums: Optional prebuilt PrefixSums of f for sweep reuse.

    Raises:
        ValueError: if x + h exceeds the table.
    """
    h = w.h
    if x < 1:
        raise ValueError("x must be >= 1")
    if x + h > f.max_n:
        raise ValueError(f"x + h = {x + h} exceeds table max_n = {f.max_n}")
    if sums is None:
        sums = PrefixSums(f)
    p0, p1 = sums.p0, sums.p1
    lo = max(0, x - h - 1)
    left = (1 - Fraction(x, h)) * (p0[x] - p0[lo]) + Fraction(p1[x] - p1[lo], h)
    right = (1 + Fraction(x, h)) * (p0[x + h] - p0[x]) - Fraction(p1[x + h] - p1[x], h)
    return left + right


def averaged_double_sum(f: FunctionTable, x: int, w: FejerWindow) -> Rational:
    """(1/h) sum_{m<=h} sum_{|n-x|<m, n>=1} f(n), the literal double average.

    This is the independent oracle for fejer_short_sum: the two forms agree
    exactly because n is counted once for each m > |n - x|.
    """
    h = w.h
    if x < 1:
        raise ValueError("x must be >= 1")
    if x + h > f.max_n:
        raise ValueError(f"x + h = {x + h} exceeds table max_n = {f.max_n}")
    total: Rational = 0
    for m in range(1, h + 1):
        for n in range(max(1, x - m + 1), x + m):
            total += f[n]
    return Fraction(total, h)


def mean_value(g: FunctionTable, x: int, w: FejerWindow) -> Rational:
    """Expected value of the short sum: h * sum_{d <= x+h} g(d)/d.

    The sum runs over the full range d <= x + h (g read as zero beyond its
    table); no tail truncation, so the bridge to the weighted multiple
    counts is exact whenever the support bound is at most x + h.
    """
    h = w.h
    total = Fraction(0)
    for d in range(1, min(x + h, g.max_n) + 1):
        gd = g[d]
        if gd:
            total += Fraction(gd) / d
    return h * total


def chi_tilde_direct(q: int, x: int, w: FejerWindow) -> Rational:
    """Weighted count of multiples of q in [x-h, x+h] minus h/q, exact.

    Multiples below 1 are clamped out (only possible for x <= h). For
    x > h the value is q-periodic in x, and summing g(q) * chi_tilde over
    q <= Q reproduces short sum minus mean value for f = g*1.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    h = w.h
    m_lo = max(1, -((-(x - h)) // q))  # ceil((x-h)/q), at least 1
    m_hi = (x + h) // q
    total = Fraction(0)
    for m in range(m_lo, m_hi + 1):
        total += 1 - Fraction(abs(q * m - x), h)
    return total - Fraction(h, q)


def literal_mean_square(g: FunctionTable, n: int, h: int, cutoff: SupportCutoff) -> Rational:
    """Sum over x in (n, 2n] of (short sum - mean value)**2, literally, per center.

    With Q = cutoff.limit(x + h), f(m) is the sum of g(d) over the divisors
    d <= Q of m, weighted by FejerWindow(h).weight(m - x), and the mean
    h * sum_{d <= Q} g(d)/d is subtracted. The exact oracle of the direct
    sweep, for either cutoff. Within a call each cut divisor sum is formed
    once per (m, Q) and each mean once per Q, as neighbouring centers share
    them.
    """
    w = FejerWindow(h)
    cut_sums: dict[tuple[int, int], Rational] = {}
    means: dict[int, Rational] = {}
    total = Fraction(0)
    for x in range(n + 1, 2 * n + 1):
        q = cutoff.limit(x + h)
        if q not in means:
            means[q] = h * sum(Fraction(g.get(d), d) for d in range(1, q + 1))
        short = 0
        for m in range(x - h, x + h + 1):
            if (m, q) not in cut_sums:
                cut_sums[m, q] = sum(g.get(d) for d in divisors(m) if d <= q)
            short += w.weight(m - x) * cut_sums[m, q]
        total += (short - means[q]) ** 2
    return total
