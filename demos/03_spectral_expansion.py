#!/usr/bin/env python3
"""The Fourier side: window kernel, expansion coefficients, Ramanujan sums.

chi_tilde_q expands over reduced fractions j/l with l | q, l > 1:
chi_tilde_q(x) = sum (l/q) c_{j,l} cos(2 pi x j / l), with nonnegative
coefficients c_{j,q} = F_h(j/q)/q from the triangular window's kernel.
"""

from fractions import Fraction

from msi import (
    FejerWindow,
    chi_tilde_direct,
    chi_tilde_expansion,
    coefficient_square_sum,
    fejer_kernel_value,
    preset_table,
    ramanujan_coefficient,
)
from msi.calibration import SQUARE_SUM_BOUND_C

w = FejerWindow(2)

# Kernel values: nonnegative, exactly 0 when h*beta is an integer
for beta in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)):
    print(f"F_2({beta}) = {fejer_kernel_value(beta, w):.6f}")

# Coefficients inherit the kernel's sign and scale like c_{dj,dq} = c_{j,q}/d
c13 = fejer_kernel_value(Fraction(1, 3), w) / 3
c26 = fejer_kernel_value(Fraction(2, 6), w) / 6
print(f"c_(1,3) = {c13:.6f}, c_(2,6) = {c26:.6f} (= c_(1,3)/2)")

# Expansion vs direct count, one full period past the clamped zone
q, h = 12, 2
wq = FejerWindow(h)
worst = max(
    abs(chi_tilde_expansion(q, x, wq) - float(chi_tilde_direct(q, x, wq)))
    for x in range(h + 1, h + 1 + 2 * q)
)
print(f"expansion vs direct for q={q}: max |diff| = {worst:.2e}")

# Parseval: period mean of chi^2 equals a quarter of the full square sum
q = 30
shift = q  # any multiple of q past h
lhs = sum(float(chi_tilde_direct(q, x + shift, w)) ** 2 for x in range(1, q + 1)) / q
rhs = coefficient_square_sum(q, w) / 4
print(f"Parseval at q={q}: period mean {lhs:.8f} vs quarter square sum {rhs:.8f}")

# The square-sum bound with the frozen calibration constant
for q, h in ((40, 2), (40, 20), (1000, 8)):
    s = coefficient_square_sum(q, FejerWindow(h))
    bound = SQUARE_SUM_BOUND_C * min(1.0, h / q)
    print(f"q={q:4d} h={h:2d}: sum c^2 = {s:.5f} <= {bound:.5f}")

# Ramanujan coefficients of g*1 for finitely supported g are finite exact sums
g = preset_table("mobius", 12)
print("R_l(mobius*1), l = 1..12:", [str(ramanujan_coefficient(g, ell, 12)) for ell in range(1, 13)])
