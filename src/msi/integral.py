"""Mean square of the centered short sums over x in (N, 2N], two ways.

The direct route sweeps centers with cumulative sums: O(N) after
tabulating f = g*1 over the windows' span. The spectral route rebuilds the
same quantity from Ramanujan coefficients, window-kernel values at Farey
fractions, and closed-form exponential x-sums, split into diagonal, nearby
(separation <= 1/A) and well-spaced (> 1/A) parts; their total must
reconstruct the direct value.

The direct sweep is one integer kernel for fixed and growing cutoffs: g is
scaled to integers by its common denominator, the short sums are int64, and
float and exact results differ only in the final reduction of the integer
deviations (numpy's pairwise sum vs Python ints). Pure functions over
immutable inputs throughout; every reduction has a fixed order, so reruns
give identical results.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, log
from typing import Union

import numpy as np

from .arith import FunctionTable, Rational, SupportCutoff
from .farey import farey_columns, farey_count, farey_enumerate
from .short_sums import FejerWindow
from .spectral import _coefficients, _ramanujan_ratios, _sin_pi_ratio, coefficient_square_sum

PAIR_BUDGET = 10 ** 7
MEAN_BITS = 96  # fixed-point bits of the float sweep's mean
PAIR_BLOCK = 1 << 13  # oriented pairs per row block; both modes' x-sums run on twice as many
PAIR_COUNTERS = (
    "fractions",
    "near_difference",
    "far_difference",
    "near_wrapped_sum",
    "far_wrapped_sum",
    "zero_weight_fractions",
)


class ResourceBudgetError(RuntimeError):
    """Raised before any work when a decomposition would exceed a resource guard."""


@dataclass(frozen=True)
class IntegralConfig:
    """Parameters of one mean-square computation.

    n: sweep range is x in (n, 2n]; h: even window half-width, at most n/4
    (h = 2, the smallest admissible window, is always allowed); cutoff:
    support restriction for g, with fixed Q <= n + h; a: spacing parameter
    separating nearby from well-spaced fraction pairs, default n*log(n).
    The table g is read through the cutoff, never beyond.
    """

    n: int
    h: int
    g: FunctionTable
    cutoff: SupportCutoff
    a: float | None = None
    g_name: str = "custom"

    def __post_init__(self):
        FejerWindow(self.h)  # validates h even, >= 2
        if self.h > 2 and 4 * self.h > self.n:
            raise ValueError(f"h={self.h} too large for n={self.n}: need h <= n/4")
        if self.h == 2 and self.n < 4:
            raise ValueError("n must be at least 4")
        if self.cutoff.mode == "fixed" and self.cutoff.q > self.n + self.h:
            raise ValueError(
                f"fixed cutoff Q={self.cutoff.q} exceeds n + h = {self.n + self.h}"
            )

    @property
    def window(self) -> FejerWindow:
        return FejerWindow(self.h)

    @property
    def a_value(self) -> float:
        return self.a if self.a is not None else self.n * log(self.n)


@dataclass(frozen=True)
class DecompositionReport:
    """Spectral parts of the mean square and their reconstruction check."""

    diagonal: float
    near_delta: float
    near_sigma: float
    far_delta: float
    far_sigma: float
    total: float
    direct: float
    abs_gap: float
    pairs: dict = field(compare=False)  # PAIR_COUNTERS -> int


@dataclass(frozen=True)
class FarPartReport:
    """Observed well-spaced parts against the A*h yardstick."""

    far_delta: float
    far_sigma: float
    far_abs: float
    a: float
    h: int
    ah: float
    ratio_to_ah: float
    coeff_square_sum: float
    harmonic_factor: float
    ramanujan_scale: float
    lemma_majorant: float


@dataclass(frozen=True)
class MajorantReport:
    """Both mean squares and the ratio j_f / (j_F + n*h)."""

    j_f: float
    j_F: float
    n_h: float
    ratio: float
    meta: dict = field(compare=False)


def selberg_integral_direct(cfg: IntegralConfig, exact: bool = False) -> Union[float, Rational]:
    """Mean square of (short sum - expected value) over x in (n, 2n].

    One integer kernel serves both cutoffs and both modes. g on
    [1, min(Q(2n + h), g.max_n)] is scaled by its common denominator D
    (the mean square of D g is D**2 times that of g), so f D and
    A(x) = h D S(x) are integers: A is a box sum of box sums of f D, two
    int64 cumulative sums over the centers' window. The expected value
    h D M(x) is c = h**2 sum_{d <= Q} g(d) D / d, split into round(c) and
    c - round(c) without forming lcm(1, ..., Q). A power cutoff tabulates
    f at Q0 = Q(n + h + 1), then for each q in (Q0, Q(2n + h)] with
    g(q) != 0 adds g(q) D times the q-periodic table of h times the
    weighted count of multiples of q, from the first center whose support
    reaches q on; centers with one support bound share one c.

    Only the last reduction depends on exact. The default sums
    ((A - round(c)) - (c - round(c)))**2 in float64 with numpy's pairwise
    sum; exact=True sums the same integer deviations in Python ints, with
    c - round(c) as a Fraction, and returns a Fraction. Both divide by
    (h D)**2.

    Raises:
        ResourceBudgetError: before any tabulation, when
            (2n + 2h) h D sum|g| >= 2**63, the bound on every int64 value
            the kernel forms.
    """
    n, h, cutoff = cfg.n, cfg.h, cfg.cutoff
    q_top = min(cutoff.limit(2 * n + h), cfg.g.max_n)
    q0 = min(cutoff.limit(n + h + 1), q_top)
    vals = cfg.g.values[:q_top]
    den = math.lcm(*(v.denominator for v in vals))
    gd = [0] + [v.numerator * (den // v.denominator) for v in vals]
    if (2 * n + 2 * h) * h * sum(map(abs, gd)) >= 2 ** 63:
        raise ResourceBudgetError(
            f"N={n}, h={h} and g (common denominator {den}) exceed the int64 range "
            "of the direct sweep: need (2N + 2h) h D sum|g| < 2**63"
        )
    a = _short_sums(gd, q0, n, h)
    segments = [(0, q0)]  # (first center index, support bound of its centers)
    centers = range(n + 1, 2 * n + 1)
    for q in range(q0 + 1, q_top + 1):
        if gd[q]:
            start = bisect_left(centers, q, key=lambda x: cutoff.limit(x + h))
            a[start:] += gd[q] * _multiple_counts(q, h)[np.arange(start + n + 1, 2 * n + 1) % q]
            segments.append((start, q))
    # c = h**2 sum_{d <= q} gd[d] / d per segment, as the integer sum of w plus the sum of
    # s / d with (w, s) = divmod(h**2 gd[d], d): linear in q, no lcm(1, ..., q). The fraction
    # is a Fraction when exact, else MEAN_BITS fixed point, off by less than q / 2**MEAN_BITS.
    whole = fixed = d0 = 0
    frac, total = Fraction(0), Fraction(0)
    dev = None if exact else np.empty(n)
    ends = [s for s, _ in segments[1:]] + [n]
    for (start, q), end in zip(segments, ends):
        for d in range(d0 + 1, q + 1):
            if gd[d]:
                w, s = divmod(h * h * gd[d], d)
                whole += w
                if exact:
                    frac += Fraction(s, d)
                else:
                    fixed += (s << MEAN_BITS) // d
        d0 = q
        seg = a[start:end]
        if exact:
            r = round(whole + frac)
            e = whole + frac - r
            seg -= r
            v = seg.tolist()
            total += sum(t * t for t in v) - 2 * e * sum(v) + len(v) * e * e
        else:
            k = (fixed + (1 << MEAN_BITS - 1)) >> MEAN_BITS
            seg -= whole + k
            np.subtract(seg, (fixed - (k << MEAN_BITS)) / (1 << MEAN_BITS), out=dev[start:end])
    if exact:
        return total / (h * den) ** 2
    return float(np.sum(np.square(dev, out=dev))) / (h * den) ** 2


def _short_sums(gd: list[int], q_max: int, n: int, h: int) -> np.ndarray:
    """A(x) = sum_{|k| < h} (h - |k|) f(x + k) for x in (n, 2n], as int64.

    f(m) is the sum of gd[d] over d | m, d <= q_max, tabulated only on the
    windows' span [n - h + 1, 2n + h - 1]. With box(y) = f(y) + ... +
    f(y + h - 1), A(x) = box(x - h + 1) + ... + box(x), so every partial
    sum stays below (2n + h) h sum|gd|. Both cumulative sums run in place
    behind a leading zero, and the tabulation is freed before A is formed.
    """
    lo = n - h + 1
    p = np.zeros(n + 2 * h, dtype=np.int64)  # p[1 + i] = f(lo + i)
    for d in range(1, q_max + 1):
        if gd[d]:
            p[1 + (-lo) % d::d] += gd[d]
    np.cumsum(p, out=p)
    box = np.zeros(n + h + 1, dtype=np.int64)  # box[1 + j] = box(lo + j)
    np.subtract(p[h:], p[:-h], out=box[1:])
    del p
    np.cumsum(box, out=box)
    return box[h + 1:] - box[1:n + 1]


def _multiple_counts(q: int, h: int) -> np.ndarray:
    """t[x mod q] = sum of h - |qm - x| over multiples qm within h of x (x > h)."""
    k = np.arange(1 - h, h)
    t = np.zeros(q, dtype=np.int64)
    np.add.at(t, -k % q, h - np.abs(k))
    return t


def diagonal_term(cfg: IntegralConfig) -> float:
    """Nonnegative diagonal of the spectral expansion.

    sum over reduced j/l, 1 < l <= Q, of R_l**2 F_h(j/l)**2 times the
    closed-form sum of cos(2 pi x j / l)**2 over x in (n, 2n].

    Raises:
        ResourceBudgetError: when the integer angle reduction would leave
            the int64 range (see selberg_integral_decomposed).
    """
    if cfg.cutoff.mode != "fixed":
        raise ValueError("diagonal_term needs a fixed cutoff")
    if cfg.cutoff.q < 2:
        return 0.0
    _check_int64_range(cfg)
    num, den, r, big_f = _farey_arrays(cfg)
    return _diagonal(num, den, r, big_f, cfg.n)


def selberg_integral_decomposed(cfg: IntegralConfig, force: bool = False) -> DecompositionReport:
    """Diagonal + nearby + well-spaced parts, reconstructed against the sweep.

    Each oriented fraction pair (u, v), u > v, contributes
    R F(u) * R F(v) * (X(delta) + X(sigma)) with X(alpha) the closed-form
    cosine x-sum; the partition at 1/A routes the delta term to near_delta
    or far_delta and the sigma term to near_sigma or far_sigma. The
    fractions are held as int64 num/den arrays with one weight vector,
    shared by the diagonal and the pair sums; pairs go in bounded row
    blocks. report.pairs counts fractions, pairs per side and mode (over
    all oriented pairs, as spaced_pair_partition does), and fractions of
    weight zero.

    Raises:
        ResourceBudgetError: before any work, when the oriented pair count
            exceeds PAIR_BUDGET and force is not set, or when the integer
            angle reduction would leave the int64 range
            (2 Q**2 (3N + 1) >= 2**63; force does not override this).
        ValueError: for power cutoffs; the per-x support restriction has no
            fixed frequency set, use the direct sweep instead.
    """
    if cfg.cutoff.mode != "fixed":
        raise ValueError("decomposition requires a fixed cutoff")
    n, q_max = cfg.n, cfg.cutoff.q
    if q_max < 2:
        direct = selberg_integral_direct(cfg)
        pairs = dict.fromkeys(PAIR_COUNTERS, 0)
        return DecompositionReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, direct, abs(direct), pairs)
    _check_int64_range(cfg)
    m = farey_count(q_max)
    pair_count = m * (m - 1) // 2
    if pair_count > PAIR_BUDGET and not force:
        raise ResourceBudgetError(
            f"{pair_count} oriented fraction pairs exceed the budget {PAIR_BUDGET}; "
            "pass force=True to run anyway"
        )
    num, den, r, big_f = _farey_arrays(cfg)
    diag = _diagonal(num, den, r, big_f, n)
    parts, pairs = _pair_sums(num, den, r * big_f, n, cfg.a_value)
    near_delta, near_sigma, far_delta, far_sigma = parts
    direct = selberg_integral_direct(cfg)
    total = diag + near_delta + near_sigma + far_delta + far_sigma
    return DecompositionReport(
        diagonal=diag,
        near_delta=near_delta,
        near_sigma=near_sigma,
        far_delta=far_delta,
        far_sigma=far_sigma,
        total=total,
        direct=direct,
        abs_gap=abs(total - direct),
        pairs=pairs,
    )


def _check_int64_range(cfg: IntegralConfig) -> None:
    """Refuse configurations whose x-sum angles (4N + 1) p could leave int64.

    Keys p <= r <= Q**2, so every product the kernel forms, at most
    (4N + 1) Q**2, stays below 2 Q**2 (3N + 1).
    """
    q_max, n = cfg.cutoff.q, cfg.n
    if 2 * q_max * q_max * (3 * n + 1) >= 2 ** 63:
        raise ResourceBudgetError(
            f"N={n}, Q={q_max} exceed the int64 budget of the pair kernel: "
            "need 2*Q**2*(3N+1) < 2**63"
        )


def _farey_arrays(cfg: IntegralConfig) -> tuple[np.ndarray, ...]:
    """num, den (int64), R_den and F_h(num/den) over farey_enumerate(Q).

    One exact R_l per denominator from one integer pass over g, rounded
    once to float; the spectral weight of a fraction is R_den * F_h(num/den).
    """
    q_max = cfg.cutoff.q
    r = np.array([0.0] + [a / b for a, b in _ramanujan_ratios(cfg.g, q_max)])
    num, den = farey_columns(farey_enumerate(q_max))
    return num, den, r[den], den * _coefficients(num, den, cfg.h)


def _diagonal(num: np.ndarray, den: np.ndarray, r: np.ndarray, big_f: np.ndarray, n: int) -> float:
    keep = (r != 0.0) & (big_f != 0.0)
    r, big_f = r[keep], big_f[keep]
    cos_sq = 0.5 * n + 0.5 * _x_sum_array(2 * num[keep], den[keep], n)
    return fsum((r * r * big_f * big_f * cos_sq).tolist())


def _x_sum_array(p: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """Re sum_{x=n+1}^{2n} e(x p / r) for int64 arrays 0 <= p <= r (r broadcasts).

    The closed form (sin(pi (4n+1) p / r) - sin(pi (2n+1) p / r)) /
    (2 sin(pi p / r)), and n where r | p (exactly where the denominator sine
    is 0.0). Every product is at most (4n + 1) r, inside the int64 guard,
    and _sin_pi_ratio reduces each angle exactly before any sin.
    """
    s = _sin_pi_ratio(p, r)
    whole = s == 0.0
    diff = _sin_pi_ratio((4 * n + 1) * p, r) - _sin_pi_ratio((2 * n + 1) * p, r)
    return np.where(whole, float(n), diff / np.where(whole, 1.0, 2.0 * s))


def _pair_sums(
    num: np.ndarray, den: np.ndarray, w: np.ndarray, n: int, a: float
) -> tuple[tuple[float, float, float, float], dict]:
    """(near_delta, near_sigma, far_delta, far_sigma) and the pair counters.

    Oriented pairs i > k of the ascending sequence go in row blocks of at
    most PAIR_BLOCK pairs. Keys are p / r with r = den_i den_k and
    p = num_i den_k -/+ num_k den_i (sigma folded to min(p, r - p), the
    sigma_key of spaced_pair_partition). Each part carries the exact sum
    of its blocks as a few partials, so it equals one fsum over all its
    terms whatever the block size.
    """
    threshold = 1 / Fraction(a)
    m = num.size
    nonzero = w != 0.0
    carry: list[list[float]] = [[], [], [], []]
    counts = dict.fromkeys(PAIR_COUNTERS, 0)
    counts["fractions"] = m
    counts["zero_weight_fractions"] = int(m - np.count_nonzero(nonzero))
    rows_per_block = max(1, PAIR_BLOCK // max(m, 1))  # row i holds i < m pairs
    for i0 in range(0, m, rows_per_block):
        rows = np.arange(i0, min(i0 + rows_per_block, m))
        ii = np.repeat(rows, rows)
        kk = np.arange(ii.size) - np.repeat(np.cumsum(rows) - rows, rows)
        cross_i = num[ii] * den[kk]
        cross_k = num[kk] * den[ii]
        r = den[ii] * den[kk]
        dp = cross_i - cross_k
        sp = cross_i + cross_k
        sp = np.minimum(sp, r - sp)  # distance of u + v to the nearest integer
        near_d = _near(dp, r, threshold)
        near_s = _near(sp, r, threshold)
        n_near_d = int(np.count_nonzero(near_d))
        n_near_s = int(np.count_nonzero(near_s))
        counts["near_difference"] += n_near_d
        counts["far_difference"] += ii.size - n_near_d
        counts["near_wrapped_sum"] += n_near_s
        counts["far_wrapped_sum"] += ii.size - n_near_s
        keep = nonzero[ii] & nonzero[kk]
        wp = w[ii[keep]] * w[kk[keep]]
        r = r[keep]
        term_d, term_s = wp * _x_sum_array(np.stack((dp[keep], sp[keep])), r, n)
        near_d, near_s = near_d[keep], near_s[keep]
        blocks = (term_d[near_d], term_s[near_s], term_d[~near_d], term_s[~near_s])
        for j, terms in enumerate(blocks):
            carry[j] = _exact_partials(carry[j] + terms.tolist())
    return tuple(fsum(c) for c in carry), counts


def _exact_partials(values: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of values.

    The first is fsum(values); each next one rounds what the previous
    ones leave, until nothing does.
    """
    out: list[float] = []
    s = fsum(values)
    while s != 0.0:
        out.append(s)
        if not math.isfinite(s):
            break
        s = fsum(values + [-x for x in out])
    return out


def _near(p: np.ndarray, r: np.ndarray, threshold: Fraction) -> np.ndarray:
    """Exact key p/r <= threshold, ties NEAR.

    float(p/r) and float(threshold) are correctly rounded, and rounding is
    monotone, so only keys whose float equals the threshold's can be
    misrouted; those few are compared as Fractions.
    """
    key = p / r
    cut = float(threshold)
    near = key < cut
    for t in np.flatnonzero(key == cut).tolist():
        near[t] = Fraction(int(p[t]), int(r[t])) <= threshold
    return near


def far_part_bound_check(cfg: IntegralConfig, force: bool = False) -> FarPartReport:
    """Well-spaced parts against A*h, with the chain of majorants alongside.

    Reports |far_delta| + |far_sigma|, its ratio to A*h, and the majorant
    scale * A * (sum over 1 < l <= Q of the reduced coefficient square sum)
    * harmonic factor, where scale is the squared worst l*|R_l| and the
    harmonic factor 2*H(K) counts the K enumerated fractions.
    """
    rep = selberg_integral_decomposed(cfg, force=force)
    far_abs = abs(rep.far_delta) + abs(rep.far_sigma)
    a_val = cfg.a_value
    ah = a_val * cfg.h
    q_max = cfg.cutoff.q
    w = cfg.window
    sq = fsum(coefficient_square_sum(ell, w, reduced_only=True) for ell in range(2, q_max + 1))
    k = len(farey_enumerate(q_max)) if q_max >= 2 else 0
    harmonic = 2.0 * fsum(1.0 / i for i in range(1, k + 1)) if k else 0.0
    ratios = _ramanujan_ratios(cfg.g, q_max)[1:]  # ell >= 2
    scale = max((abs(a / b) * ell for ell, (a, b) in enumerate(ratios, 2)), default=0.0)
    return FarPartReport(
        far_delta=rep.far_delta,
        far_sigma=rep.far_sigma,
        far_abs=far_abs,
        a=a_val,
        h=cfg.h,
        ah=ah,
        ratio_to_ah=far_abs / ah,
        coeff_square_sum=sq,
        harmonic_factor=harmonic,
        ramanujan_scale=scale * scale,
        lemma_majorant=scale * scale * a_val * sq * harmonic,
    )


def majorant_compare(
    cfg: IntegralConfig, g_major: FunctionTable, major_name: str = "custom"
) -> MajorantReport:
    """Both mean squares for g and its pointwise majorant G, plus the ratio.

    Requires |g(n)| <= G(n) wherever both are nonzero within the cutoff
    (checked exactly); the first offending n is reported on violation. The
    ratio j_f / (j_F + n*h) is the quantity whose growth in n stays below
    every fixed power when the majorant relation holds.
    """
    limit = cfg.cutoff.limit(2 * cfg.n + cfg.h)
    top = min(cfg.g.max_n, g_major.max_n, limit)
    for n_ in range(1, top + 1):
        gv, Gv = cfg.g[n_], g_major[n_]
        if gv != 0 and Gv != 0 and abs(gv) > Gv:
            raise ValueError(
                f"majorant violated at n={n_}: |g({n_})| = {abs(gv)} > G({n_}) = {Gv}"
            )
    j_f = selberg_integral_direct(cfg)
    cfg_major = IntegralConfig(
        n=cfg.n, h=cfg.h, g=g_major, cutoff=cfg.cutoff, a=cfg.a, g_name=major_name
    )
    j_big = selberg_integral_direct(cfg_major)
    n_h = float(cfg.n) * cfg.h
    return MajorantReport(
        j_f=j_f,
        j_F=j_big,
        n_h=n_h,
        ratio=j_f / (j_big + n_h),
        meta={
            "n": cfg.n,
            "h": cfg.h,
            "cutoff": _cutoff_label(cfg.cutoff),
            "g": cfg.g_name,
            "G": major_name,
        },
    )


def _cutoff_label(cutoff: SupportCutoff) -> str:
    if cutoff.mode == "fixed":
        return f"fixed:{cutoff.q}"
    return f"power:{cutoff.theta}"
