"""Frozen desk-scale constants and the sweeps that produced them.

The asymptotic bounds checked downstream hide constants; to make them
assertable at finite scale, each constant is calibrated once by brute force
over its full grid and frozen here at twice the observed maximum (rounded
up). Rerunning the sweep functions reproduces the observed maxima.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .arith import preset_table, random_rational_table
from .integral import IntegralConfig, SupportCutoff
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

    Returns (max_ratio, (q, h) attaining it). SQUARE_SUM_BOUND_C is twice
    this maximum, rounded up.
    """
    hs = np.arange(2, h_max + 1, 2)
    qq = np.arange(2, q_max + 1)
    ratio = coefficient_square_sums(q_max, hs)[:, 2:] / np.minimum(1.0, hs[:, None] / qq)
    i, k = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return float(ratio[i, k]), (int(qq[k]), int(hs[i]))


def reconstruction_grid(
    n_step: int = 1, preset_every: int = 16
) -> Iterator[IntegralConfig]:
    """The canonical fixed-cutoff grid: N <= 200, Q <= 12, even h <= 8.

    One seeded random-rational g per (N, h, Q) cell; mobius and unit
    presets are added on every `preset_every`-th N. The same seeds are used
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
                if n % preset_every == 0:
                    yield IntegralConfig(
                        n=n, h=h, g=preset_table("mobius", q), cutoff=cut, g_name="mobius"
                    )
                    yield IntegralConfig(
                        n=n, h=h, g=preset_table("unit", q), cutoff=cut, g_name="unit"
                    )


def far_part_ratio_sweep(n_step: int = 1):
    """Worst (|far_delta| + |far_sigma|) / (A h) over the grid, A in {N, N log N}.

    Returns (max_ratio, describing tuple). FAR_PART_BOUND_C is twice this
    maximum, rounded up.
    """
    from .integral import selberg_integral_decomposed

    worst, worst_at = 0.0, None
    for cfg in reconstruction_grid(n_step=n_step):
        for a in (float(cfg.n), None):
            c = IntegralConfig(
                n=cfg.n, h=cfg.h, g=cfg.g, cutoff=cfg.cutoff, a=a, g_name=cfg.g_name
            )
            rep = selberg_integral_decomposed(c)
            ratio = (abs(rep.far_delta) + abs(rep.far_sigma)) / (c.a_value * c.h)
            if ratio > worst:
                worst = ratio
                worst_at = (c.n, c.h, c.cutoff.q, c.g_name, "N" if a else "NlogN")
    return worst, worst_at
