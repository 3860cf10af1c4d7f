"""Frozen desk-scale constants and the sweeps that produced them.

The asymptotic bounds checked downstream hide constants; to make them
assertable at finite scale, each constant is calibrated once by brute force
over its full grid and frozen here at twice the observed maximum (rounded
up). The sweep functions reproduce the observed maxima; the checks in
msi.verify run them and divide by the frozen constants.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

import numpy as np

from .arith import random_rational_table
from .integral import IntegralConfig, SupportCutoff, selberg_integral_decomposed
from .spectral import coefficient_square_sums

# Observed max of sum_j c_{j,q}**2 / min(1, h/q) over q <= 2000, even
# h <= 200 is 2.9960 (at q = 2000, h = 2; the q >> h limit approaches 3).
SQUARE_SUM_BOUND_C = 6.0

# Observed max of (|far_delta| + |far_sigma|) / (A h) over the
# reconstruction grid (N <= 200, Q <= 12, even h <= 8, A in {N, N log N})
# is 0.1275 (at N = 16, h = 2, Q = 12, g = unit, A = N).
FAR_PART_BOUND_C = 0.26


def square_sum_ratio_sweep(q_max: int = 2000, h_max: int = 200):
    """Worst sum/min(1, h/q) over the full (q, h) grid.

    Returns (max_ratio, (q, h) attaining it, the square-sum table): the
    table is coefficient_square_sums(q_max, even h <= h_max), row h/2 - 1,
    column q. SQUARE_SUM_BOUND_C is twice this maximum, rounded up.
    """
    hs = np.arange(2, h_max + 1, 2)
    qq = np.arange(2, q_max + 1)
    sums = coefficient_square_sums(q_max, hs)
    ratio = sums[:, 2:] / np.minimum(1.0, hs[:, None] / qq)
    i, k = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return float(ratio[i, k]), (int(qq[k]), int(hs[i])), sums


def reconstruction_grid(n_step: int = 1) -> Iterator[IntegralConfig]:
    """The canonical fixed-cutoff grid: N <= 200, Q <= 12, even h <= 8.

    One seeded random-rational g per (N, h, Q) cell; mobius and unit
    presets are added on every 16th N. The same seeds are used
    by the calibration sweep and the verification suites, so frozen
    constants cover exactly what the suites re-check.
    """
    for n in range(8, 201, n_step):
        for h in (2, 4, 6, 8):
            if h > 2 and 4 * h > n:
                continue
            for q in range(1, 13):
                if q > n + h:
                    continue
                cut = SupportCutoff.fixed(q)
                yield IntegralConfig(
                    n=n, h=h, g=random_rational_table(q, seed=n * 100 + q * 10 + h),
                    cutoff=cut, g_name="random",
                )
                if n % 16 == 0:
                    yield IntegralConfig.from_presets(n, h, "mobius", cut)
                    yield IntegralConfig.from_presets(n, h, "unit", cut)


def far_part_ratio_sweep(n_step: int = 1):
    """Worst (|far_delta| + |far_sigma|) / (A h) over the grid, A in {N, N log N}.

    Returns (max_ratio, describing tuple, decompositions run).
    FAR_PART_BOUND_C is twice this maximum, rounded up.
    """
    worst, worst_at, runs = 0.0, None, 0
    for cfg in reconstruction_grid(n_step=n_step):
        for a in (float(cfg.n), None):
            c = replace(cfg, a=a)
            rep = selberg_integral_decomposed(c)
            runs += 1
            ratio = (abs(rep.far_delta) + abs(rep.far_sigma)) / (c.a_value * c.h)
            if ratio > worst:
                worst = ratio
                worst_at = (c.n, c.h, c.cutoff.q, c.g_name, "N" if a else "NlogN")
    return worst, worst_at, runs
