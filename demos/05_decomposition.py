#!/usr/bin/env python3
"""One mean square, two routes: direct sweep vs spectral decomposition.

The direct route tabulates f = g*1 and sweeps centers with prefix sums.
The spectral route sums Ramanujan-weighted kernel values over fraction
pairs with closed-form cosine x-sums, split into diagonal, nearby and
well-spaced parts. The parts must re-add to the direct value.
"""

from msi import (
    IntegralConfig,
    SupportCutoff,
    exp_sum_closed_form,
    preset_table,
    selberg_integral_decomposed,
    selberg_integral_direct,
)
from msi.calibration import FAR_PART_BOUND_C

cfg = IntegralConfig(
    n=120, h=4, g=preset_table("mobius", 12), cutoff=SupportCutoff.fixed(12),
    g_name="mobius",
)

direct = selberg_integral_direct(cfg)
rep = selberg_integral_decomposed(cfg)
print(f"direct sweep       : {direct:.10f}")
print(f"diagonal           : {rep.diagonal:.10f}")
print(f"near (delta, sigma): {rep.near_delta:.3e}, {rep.near_sigma:.3e}")
print(f"far  (delta, sigma): {rep.far_delta:.3e}, {rep.far_sigma:.3e}")
print(f"total              : {rep.total:.10f}")
print(f"|total - direct|   : {rep.abs_gap:.2e}")

# The exact sweeps agree with the float ones at oracle scale
exact = selberg_integral_direct(cfg, exact=True)
print(f"exact rational     : {exact} = {float(exact):.10f}")

# Closed-form exponential sums drive every x-sum in the decomposition
from fractions import Fraction

alpha = Fraction(3, 7)
s = exp_sum_closed_form(alpha, cfg.n)
print(f"\nsum of e({alpha} x) over x in (120, 240]: {s:.6f}, |sum| <= 1/(2||alpha||) = {1 / (2 * (3 / 7)):.4f}")

# Well-spaced parts against the A*h yardstick (frozen constant)
far_abs = abs(rep.far_delta) + abs(rep.far_sigma)
a = cfg.a_value
print(f"\nA = {a:.1f}: |far parts| = {far_abs:.4f} <= {FAR_PART_BOUND_C} * A * h = {FAR_PART_BOUND_C * a * cfg.h:.1f}")

# Nearby parts turn nonnegative once the threshold is tight enough
# (every cosine x-sum is positive when N * key <= 1/8, i.e. A >= 8N):
tight = IntegralConfig(
    n=16, h=2, g=preset_table("mobius-squared", 12), cutoff=SupportCutoff.fixed(12),
    a=8.0 * 16, g_name="mobius-squared",
)
rep_tight = selberg_integral_decomposed(tight)
print(f"\nA = 8N: diagonal + near = {rep_tight.diagonal + rep_tight.near_delta + rep_tight.near_sigma:.6f} >= 0")
