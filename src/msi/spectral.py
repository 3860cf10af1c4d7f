"""Finite Fourier side of the windowed multiple counts.

The triangular window of half-width h has the nonnegative kernel

    F_h(beta) = (2/h) * sin(pi h beta)**2 / sin(pi beta)**2,

and the centered multiple count chi_tilde_q expands over reduced fractions
j/l with l | q, l > 1 as (l/q) * c_{j,l} * cos(2 pi x j / l), where
c_{j,q} = F_h(j/q) / q. Ramanujan coefficients R_l tie these expansions to
the support values of g; for finitely supported g they are finite exact
rational sums.

This module owns every sine of a rational angle, on two paths that share
no code. The array path (_sin_pi_ratio, _coefficients) serves the library:
angles pi t / r with int64 t, r are reduced in integers before the one
float division, so a fraction and all its unreduced forms give the same
bits. The decomposition's pair kernel calls it for one per-fraction table
of sin and cos at pi (4N + 1) u and pi (2N + 1) u, takes each pair's
x-sum numerators from that table by angle addition, and still reduces
each pair key's denominator sin(pi p / r) exactly. The scalar path
(_sin_pi, fejer_kernel_value, exp_sum_closed_form) reduces Fractions
exactly and is the reference the tests hold the array path to; a float
argument is taken at its exact binary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import pi, sin
from typing import Sequence, Union

import numpy as np

from .arith import FunctionTable, Rational, integer_scaled
from .short_sums import FejerWindow


# ----------------------------------------------------------------------
# array path
# ----------------------------------------------------------------------

def _sin_pi_ratio(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sin(pi t / r) for int64 arrays t and r >= 1, any t.

    t = k r + s with 0 <= s < r in integers; each half turn in k flips the
    sign, and sin(pi s/r) = sin(pi (r - s)/r) folds the angle into
    [0, pi/2], so small sines keep full relative accuracy. The float s / r
    is the correctly rounded value of an exact rational: scaling t and r by
    any d gives the same bits, and the result is exactly 0.0 where r | t.
    """
    k, s = np.divmod(t, r)
    y = np.sin(pi * (np.minimum(s, r - s) / r))
    return np.where(k & 1, -y, y)


def _coefficients(j: np.ndarray, q: np.ndarray, h) -> np.ndarray:
    """c_{j,q} = F_h(j/q) / q over int64 arrays j, q (q not dividing j); h may be an array.

    F_h depends on j/q only through _sin_pi_ratio, whose bits do not change
    when j and q share a factor d, so c_{dj,dq} = c_{j,q}/d as exactly as the
    one final division allows. Exactly 0.0 where q | h j.
    """
    top = _sin_pi_ratio(h * j, q)
    bot = _sin_pi_ratio(j, q)
    return (2.0 / h) * np.square(top) / np.square(bot) / q


def chi_tilde_expansion(
    q: int, x: Union[int, np.ndarray], w: FejerWindow
) -> Union[float, np.ndarray]:
    """chi_tilde_q(x) via the expansion over the fractions j/q, 1 <= j <= q/2.

    Each j/q reduces to one j'/l with l | q, l > 1, and c_{j,q} =
    (l/q) c_{j',l}, so this is the sum over l | q, l > 1 of (l/q) times the
    sum over reduced j' <= l/2 of c_{j',l} cos(2 pi x j' / l). Matches the
    direct windowed count for all x > h; exactly q-periodic in x, since x is
    reduced mod q before any multiply. x may be an int (returns a float) or
    an int array (returns an array of the same shape).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    j = np.arange(1, q // 2 + 1)
    xr = np.asarray(x, dtype=np.int64) % q
    cos = _sin_pi_ratio(4 * np.multiply.outer(xr, j) + q, 2 * q)  # cos(2 pi x j / q)
    total = np.sum(_coefficients(j, q, w.h) * cos, axis=-1)
    return float(total) if total.ndim == 0 else total


def _square_sum(j: np.ndarray, q: int, h) -> np.ndarray:
    """Sum of c_{j',q}**2 over j' in {j, q - j} for the given j <= q/2; h may be a column."""
    c = _coefficients(j, q, h)
    return np.sum(np.where(2 * j == q, 1.0, 2.0) * c * c, axis=-1)


def coefficient_square_sum(q: int, w: FejerWindow) -> float:
    """Sum of c_{j,q}**2 over j = 1..q-1.

    It is the Parseval mass of chi_tilde_q over one period
    (up to the factor 4 from cosine pairing) and is bounded by a constant
    times min(1, h/q). The kernel is symmetric, c_{q-j,q} = c_{j,q}, so only
    j <= q/2 is evaluated.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    return float(_square_sum(np.arange(1, q // 2 + 1), q, w.h))


def coefficient_square_sums(q_max: int, hs: Sequence[int]) -> np.ndarray:
    """sums[i, q] = coefficient_square_sum(q, FejerWindow(hs[i])) for 2 <= q <= q_max.

    One kernel call per q serves every h at once; columns 0 and 1 are 0.
    """
    h = np.asarray(hs, dtype=np.int64)[:, None]
    sums = np.zeros((h.shape[0], q_max + 1))
    for q in range(2, q_max + 1):
        sums[:, q] = _square_sum(np.arange(1, q // 2 + 1), q, h)
    return sums


def _ramanujan_ratios(g: FunctionTable, q_max: int) -> list[tuple[int, int]]:
    """R_ell = a / b as unreduced integer pairs (a, b), 1 <= ell <= q_max.

    g on [1, min(q_max, g.max_n)] is scaled by its common denominator D, so
    with K = that bound // ell and L = lcm(1, ..., K), a is the one integer
    sum of (g D)(ell k) * (L / k) over k <= K and b = D ell L. ell runs
    downward, so K only grows and L is updated in place. Python's int true
    division a / b is the correctly rounded float of R_ell.
    """
    top = min(q_max, g.max_n)
    den, gd = integer_scaled(g, top)
    ratios = [(0, 1)] * q_max
    lcm_k, k_done = 1, 0
    for ell in range(top, 0, -1):
        k_max = top // ell
        for k in range(k_done + 1, k_max + 1):
            lcm_k = math.lcm(lcm_k, k)
        k_done = k_max
        num = sum(gd[ell * k] * (lcm_k // k) for k in range(1, k_max + 1))
        ratios[ell - 1] = (num, den * ell * lcm_k)
    return ratios


# ----------------------------------------------------------------------
# scalar path (the reference)
# ----------------------------------------------------------------------

def _sin_pi(a: Fraction) -> float:
    """sin(pi a), with a reduced exactly to [0, 1/2] and a sign before one rounding."""
    a %= 2
    sign = 1.0
    if a >= 1:
        a -= 1
        sign = -1.0
    return sign * sin(pi * float(min(a, 1 - a)))


def fejer_kernel_value(beta: Union[float, Fraction], w: FejerWindow) -> float:
    """(2/h) sin(pi h beta)**2 / sin(pi beta)**2, nonnegative.

    A float beta is taken at its exact binary value. Returns exactly 0.0
    when h*beta is an integer. Integer beta is outside the domain.
    """
    beta = Fraction(beta)
    if beta.denominator == 1:
        raise ValueError("beta must not be an integer")
    h = w.h
    return (2.0 / h) * _sin_pi(h * beta) ** 2 / _sin_pi(beta) ** 2


def exp_sum_closed_form(alpha: Union[float, int, Fraction], n: int) -> complex:
    """sum_{x=n+1}^{2n} e(alpha x) via the geometric closed form.

    Equals e(alpha (3n+1)/2) * sin(pi n alpha) / sin(pi alpha) for
    non-integer alpha, and n for integer alpha. A float alpha is taken at its
    exact binary value and every angle is reduced exactly before any sin, so
    large n*alpha keeps full accuracy; magnitude obeys
    |sum| <= min(n, 1/(2 ||alpha||)).
    """
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        return complex(n)
    phase = alpha * (3 * n + 1)  # e(alpha (3n+1)/2) = cos(pi phase) + i sin(pi phase)
    ratio = _sin_pi(n * alpha) / _sin_pi(alpha)
    return complex(_sin_pi(phase + Fraction(1, 2)), _sin_pi(phase)) * ratio


def ramanujan_coefficient(g: FunctionTable, ell: int, q_max: int) -> Rational:
    """R_ell of g*1 for g supported in [1, q_max]: sum of g(m)/m over ell | m.

    Exact rational value; zero once ell exceeds q_max. The per-ell reference
    for _ramanujan_ratios.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    total = Fraction(0)
    for m in range(ell, min(q_max, g.max_n) + 1, ell):
        gm = g[m]
        if gm:
            total += Fraction(gm) / m
    return total
