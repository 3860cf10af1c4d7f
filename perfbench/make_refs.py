"""Compute the stored reference values of the benchmark, exactly.

Run from the repository root:

    python3 perfbench/make_refs.py

and commit the rewritten perfbench/refs.json. The script does not import
msi: it recomputes each mean square from the definitions in Python integers
and fractions.Fraction, so the float code being timed is checked against an
independent route. Each value is stored as the float nearest to the exact
rational.

For a window half-width h the triangular short sum at x is S(x) = A(x)/h
with the integer A(x) = sum over |k| < h of (h - |k|) f(x + k), formed here
as a box sum of a box sum (two integer cumulative sums). With
c = h**2 * sum_{d <= Q} g(d)/d the mean square is

    sum over x in (N, 2N] of (A(x) - c)**2 / h**2
        = (sum A**2 - 2 c sum A + N c**2) / h**2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from workloads import DECOMPOSE, POWER_CUTOFF, SWEEP_ROWS

REFS = Path(__file__).resolve().parent / "refs.json"


def mobius(d: int) -> int:
    """mu(d) by trial division."""
    sign = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def g_value(preset: str, d: int) -> int:
    mu = mobius(d)
    return mu if preset == "mobius" else mu * mu


def fixed_cutoff_mean_square(n: int, h: int, q: int, preset: str) -> Fraction:
    """Exact mean square for g = preset cut to [1, q]."""
    size = 2 * n + h + 1
    f = np.zeros(size, dtype=np.int64)
    g = {d: g_value(preset, d) for d in range(1, q + 1)}
    for d, gd in g.items():
        if gd:
            f[d::d] += gd
    # box sums of length h: box[y] = f[y] + ... + f[y + h - 1]
    c0 = np.concatenate(([0], np.cumsum(f)))
    box = c0[h:] - c0[:-h]
    # A(x) = box[x - h + 1] + ... + box[x]
    c1 = np.concatenate(([0], np.cumsum(box)))
    xs = np.arange(n + 1, 2 * n + 1)
    a = (c1[xs + 1] - c1[xs - h + 1]).tolist()
    # spot-check A(x) against its definition at a few centers
    for x in (n + 1, (3 * n) // 2, 2 * n):
        want = sum((h - abs(k)) * int(f[x + k]) for k in range(-h + 1, h))
        if a[x - n - 1] != want:
            raise AssertionError(f"box-sum A({x}) = {a[x - n - 1]} != {want}")
    c = h * h * sum(Fraction(gd, d) for d, gd in g.items())
    sum_a = sum(a)
    sum_a2 = sum(v * v for v in a)
    return (sum_a2 - 2 * c * sum_a + n * c * c) / (h * h)


def power_cutoff_mean_square(n: int, h: int, preset: str) -> Fraction:
    """Exact mean square with g cut per center x to [1, isqrt(x + h)]."""
    q_top = isqrt(2 * n + h)
    g = [0] + [g_value(preset, d) for d in range(1, q_top + 1)]
    # centers sharing one cutoff share one expected value c
    groups: dict[int, list[int]] = {}
    for x in range(n + 1, 2 * n + 1):
        q_x = isqrt(x + h)
        b = 0
        for q in range(1, q_x + 1):
            if g[q]:
                w = 0
                for m in range(-((h - x) // q), (x + h) // q + 1):
                    w += h - abs(q * m - x)
                b += g[q] * w
        groups.setdefault(q_x, []).append(b)
    total = Fraction(0)
    for q_x, bs in groups.items():
        c = h * h * sum(Fraction(g[q], q) for q in range(1, q_x + 1))
        total += sum(v * v for v in bs) - 2 * c * sum(bs) + len(bs) * c * c
    return total / (h * h)


def main() -> None:
    rows = [
        {
            "n": n,
            "h": h,
            "q": q,
            "j_f": float(fixed_cutoff_mean_square(n, h, q, "mobius")),
            "j_F": float(fixed_cutoff_mean_square(n, h, q, "mobius-squared")),
        }
        for n, h, q in SWEEP_ROWS
    ]
    refs = {
        "majorant-sweep": rows,
        "power-cutoff": {
            **POWER_CUTOFF,
            "direct": float(power_cutoff_mean_square(POWER_CUTOFF["n"], POWER_CUTOFF["h"], "mobius")),
        },
        "decompose": {
            **DECOMPOSE,
            "direct": float(fixed_cutoff_mean_square(DECOMPOSE["n"], DECOMPOSE["h"], DECOMPOSE["q"], "mobius")),
        },
    }
    REFS.write_text(json.dumps(refs, indent=2) + "\n")
    print(f"wrote {REFS}")


if __name__ == "__main__":
    main()
