"""Mean square of the centered short sums over x in (N, 2N], two ways.

The direct route sweeps centers in blocks: O(N) time and O(block + Q)
memory. Each block adds one list of shared periodic tables of the
window-weighted multiple counts of d, made once per call: the planned
groups of a sweep of several blocks and the q a power cutoff adds past its
first bound. A sweep of one block, and the d the groups leave over,
tabulate f = g*1 on the block's span and take two cumulative sums. The
spectral route rebuilds the same quantity from Ramanujan coefficients,
window-kernel values at Farey fractions, and closed-form exponential
x-sums, split into diagonal, nearby (separation <= 1/A) and well-spaced
(> 1/A) parts; their total must reconstruct the direct value.

The direct sweep is one integer kernel for fixed and growing cutoffs: g is
scaled to integers by its common denominator, the short sums are exact
integers (int64, or int32 where the tables alone form them and every value
fits) and run in cache-sized blocks of centers, and float and exact
results differ only in the final reduction of the integer deviations
(numpy's pairwise sum per block and one math.fsum over the blocks, vs
Python ints). Pure functions over immutable inputs throughout; every
reduction has a fixed order, so reruns give identical results.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import fsum, log
from typing import Union

import numpy as np

from .arith import FunctionTable, Rational, SupportCutoff, integer_scaled, preset_table
from .farey import farey_columns, farey_count
from .short_sums import FejerWindow
from .spectral import _coefficients, _ramanujan_ratios, _sin_pi_ratio, coefficient_square_sum

PAIR_BUDGET = 10 ** 7
MEAN_BITS = 96  # fixed-point bits of the float sweep's mean
PAIR_BLOCK = 1 << 13  # oriented pairs per row block; both modes' x-sums run on twice as many
SWEEP_BLOCK = 1 << 16  # centers per block of the direct sweep, at least 16 Q0
TABLE_SHARE = 4  # a periodic table of the sweep spans at most block / TABLE_SHARE centers
TABLE_LIMIT = 12  # most periodic tables a block adds in place of its two cumulative sums
_NEAR_PARTS, _FAR_PARTS = np.array([[0], [1]]), np.array([[2], [3]])  # delta, sigma rows
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
    separating nearby from well-spaced fraction pairs, finite and above 0,
    default n*log(n).
    The table g is read through the cutoff, never beyond.
    """

    n: int
    h: int
    g: FunctionTable
    cutoff: SupportCutoff
    a: float | None = None
    g_name: str = "custom"

    def __post_init__(self):
        self.check(self.n, self.h, self.cutoff, self.a)

    @staticmethod
    def check(n: int, h: int, cutoff: SupportCutoff, a: float | None) -> None:
        """Raise ValueError unless (n, h, cutoff, a) is an admissible config shape."""
        FejerWindow(h)  # validates h even, >= 2
        if h > 2 and 4 * h > n:
            raise ValueError(f"h={h} too large for n={n}: need h <= n/4")
        if h == 2 and n < 4:
            raise ValueError("n must be at least 4")
        if cutoff.mode == "fixed" and cutoff.q > n + h:
            raise ValueError(f"fixed cutoff Q={cutoff.q} exceeds n + h = {n + h}")
        if a is not None and not (a > 0 and math.isfinite(a)):
            raise ValueError(f"spacing parameter A={a} must be finite and above 0")

    @classmethod
    def from_presets(
        cls, n: int, h: int, g_name: str, cutoff: SupportCutoff, a: float | None = None
    ) -> "IntegralConfig":
        """The config with g = preset_table(g_name) up to cutoff.limit(2n + h).

        The shape is checked first, so a bad config never tabulates g.
        """
        cls.check(n, h, cutoff, a)
        g = preset_table(g_name, cutoff.limit(2 * n + h))
        return cls(n=n, h=h, g=g, cutoff=cutoff, a=a, g_name=g_name)

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


def selberg_integral_direct(cfg: IntegralConfig, exact: bool = False) -> Union[float, Rational]:
    """Mean square of (short sum - expected value) over x in (n, 2n].

    One integer kernel serves both cutoffs and both modes. g on
    [1, min(Q(2n + h), g.max_n)] is scaled by its common denominator D
    (the mean square of D g is D**2 times that of g), so f D and
    A(x) = h D S(x) are integers. A is the sum over d <= Q of g(d) D times
    t_d(x mod d), h times the weighted count of multiples of d near x: a sum
    of d-periodic tables. The expected value h D M(x) is
    c = h**2 sum_{d <= Q} g(d) D / d, split into round(c) and c - round(c)
    without forming lcm(1, ..., Q). A power cutoff covers the d up to
    Q0 = Q(n + h + 1) as a fixed one does, then for each q in
    (Q0, Q(2n + h)] with g(q) != 0 adds g(q) D times t_q from the first
    center whose support reaches q on; centers with one support bound share
    one c.

    The centers run in blocks of max(SWEEP_BLOCK, 16 Q0), each formed and
    reduced on its own span in two buffers reused by every block, so memory
    is O(block + Q) at any n (plus one table per added q of a power
    cutoff); a block's A is the integer slice the whole sweep would give.
    Every periodic table the sweep adds is one (first center index, table)
    entry of one list, made once per call from one bincount
    (_periodic_tables): each added q of a power cutoff from its first center
    on, and in a sweep of several blocks one table per group of the d <= Q0
    with g(d) != 0, planned with lcm at most block / TABLE_SHARE (16384 at
    the default block) by _table_plan, from center 0 on, with round(c)
    folded into the first. When at most TABLE_LIMIT groups hold every d, a
    block's A is a copy of the first table plus the others, with no sieve
    and no cumulative sum, in int32 when (3h + 1) h D sum|g| < 2**31 - 1
    bounds every value and else in int64. Otherwise only the first group's
    table is made, and A is the other tables plus the d it leaves over
    (every d <= Q0 in a sweep of one block), sieved into f D on the block's
    span and taken as a box sum of box sums: two int64 cumulative sums.

    Only the last reduction depends on exact. The default sums
    ((A - round(c)) - (c - round(c)))**2 in float64, with numpy's pairwise
    sum per block and math.fsum over the blocks in order, so a sweep of
    one block (n <= SWEEP_BLOCK) is a single pairwise sum; exact=True sums
    the same integer deviations in Python ints, with c - round(c) as a
    Fraction, and returns a Fraction. Both divide by (h D)**2.

    Raises:
        ResourceBudgetError: before any tabulation, when
            (2n + 2h) h D sum|g| >= 2**63, the bound on every int64 value
            the kernel forms.
    """
    n, h, cutoff = cfg.n, cfg.h, cfg.cutoff
    q_top = min(cutoff.limit(2 * n + h), cfg.g.max_n)
    q0 = min(cutoff.limit(n + h + 1), q_top)
    den, gd = integer_scaled(cfg.g, q_top)
    mass = sum(map(abs, gd))
    if (2 * n + 2 * h) * h * mass >= 2 ** 63:
        raise ResourceBudgetError(
            f"N={n}, h={h} and g (common denominator {den}) exceed the int64 range "
            "of the direct sweep: need (2N + 2h) h D sum|g| < 2**63"
        )
    block = min(max(SWEEP_BLOCK, 16 * q0), n)
    if block < n:
        groups, sieve = _table_plan(gd, q0, block // TABLE_SHARE)
    else:
        groups, sieve = [], [d for d in range(1, q0 + 1) if gd[d]]
    centers = range(n + 1, 2 * n + 1)
    added = [  # (first center index, q) of each q the support reaches past Q0
        (bisect_left(centers, q, key=lambda x: cutoff.limit(x + h)), q)
        for q in range(q0 + 1, q_top + 1) if gd[q]
    ]
    segments = _segment_means(gd, h, [(0, q0)] + added, n, exact)
    from_tables = bool(groups) and not sieve
    # |A - round(c)| and every partial sum of tables and means is at most (3h + 1) h sum|gd| + 1/2
    narrow = from_tables and (3 * h + 1) * h * mass < 2 ** 31 - 1
    dtype = np.int32 if narrow else np.int64
    tables, folded = [], 0  # (first center index, table) of every table the blocks add
    if groups or added:  # a one-block fixed sweep builds nothing
        tables = _periodic_tables(gd, groups, added, h, block // TABLE_SHARE, dtype)
    if groups:
        folded = segments[0][2]
        tables[0][1][...] -= folded
    if from_tables:  # buffers of the largest block, reused by all
        acc, dev = np.empty(block, dtype=dtype), np.empty(block)
        base, tables = tables[0][1], tables[1:]
    else:
        p = np.zeros(block + 2 * h, dtype=np.int64)
        box = np.zeros(block + h + 1, dtype=np.int64)
        dev = box[1:].view(np.float64)  # box is dead once A is formed; its leading zero stays
    sums, total = [], Fraction(0)
    for c0 in range(0, n, block):
        b = min(block, n - c0)
        x = n + c0 + 1  # the block's first center
        if from_tables:
            a = acc[:b]
            for dst, src in _periodic_slices(a, base, x % base.size):
                dst[...] = src
        else:
            a = _short_sums(gd, sieve, n + c0, h, p[:b + 2 * h], box[:b + h + 1])
        for start, t in tables:
            s = max(start - c0, 0)
            if s < b:
                _add_periodic(a[s:], t, (x + s) % t.size)
        for start, end, r, e in segments:
            lo, hi = max(start - c0, 0), min(end - c0, b)
            if lo >= hi:
                continue
            seg = a[lo:hi]
            if r != folded:
                seg -= r - folded
            if exact:
                v = seg.tolist()
                total += sum(t * t for t in v) - 2 * e * sum(v) + len(v) * e * e
            else:
                piece = dev[lo:hi]
                piece[...] = seg  # cast apart from the subtraction: no cast buffer
                piece -= e
        if not exact:
            sums.append(float(np.add.reduce(np.square(dev[:b], out=dev[:b]))))
    if exact:
        return total / (h * den) ** 2
    return fsum(sums) / (h * den) ** 2


def _segment_means(
    gd: list[int], h: int, bounds: list[tuple[int, int]], n: int, exact: bool
) -> list:
    """(start, end, round(c), c - round(c)) per run of centers with one support bound.

    bounds holds (first center index, support bound q) in order. c = h**2 sum_{d <= q}
    gd[d] / d is the integer sum of w plus the sum of s / d with (w, s) = divmod(h**2 gd[d], d):
    linear in q, no lcm(1, ..., q). The fraction is a Fraction when exact, else MEAN_BITS
    fixed point, off by less than q / 2**MEAN_BITS before its rounding to float.
    """
    whole = fixed = d0 = 0
    frac = Fraction(0)
    out = []
    ends = [s for s, _ in bounds[1:]] + [n]
    for (start, q), end in zip(bounds, ends):
        for d in range(d0 + 1, q + 1):
            if gd[d]:
                w, s = divmod(h * h * gd[d], d)
                whole += w
                if exact:
                    frac += Fraction(s, d)
                else:
                    fixed += (s << MEAN_BITS) // d
        d0 = q
        if exact:
            r = round(whole + frac)
            out.append((start, end, r, whole + frac - r))
        else:
            k = (fixed + (1 << MEAN_BITS - 1)) >> MEAN_BITS
            out.append((start, end, whole + k, (fixed - (k << MEAN_BITS)) / (1 << MEAN_BITS)))
    return out


def _table_plan(gd: list[int], q_max: int, bound: int) -> tuple[list[list], list[int]]:
    """(groups, sieve): the d <= q_max with gd[d] != 0 as [lcm, members] groups, and the rest.

    The d join in ascending order, each d the group whose lcm it raises
    least while that lcm stays at most bound (at least q_max), else a new
    group. When the d need more than TABLE_LIMIT groups, only the first is
    kept, holding every d dividing its lcm, and the other d go to the sieve.
    """
    ds = [d for d in range(1, q_max + 1) if gd[d]]
    groups = []  # [lcm, members]
    for d in ds:
        best, grow = None, 0
        for g in groups:
            k = math.lcm(g[0], d) // g[0]
            if g[0] * k <= bound and (best is None or k < grow):
                best, grow = g, k
                if k == 1:
                    break
        if best is not None:
            best[0] *= grow
            best[1].append(d)
        elif len(groups) < TABLE_LIMIT:
            groups.append([d, [d]])
        else:
            period = groups[0][0]
            groups = [[period, [e for e in ds if period % e == 0]]]
            break
    tabled = {d for _, members in groups for d in members}
    return groups, [d for d in ds if d not in tabled]


def _periodic_tables(
    gd: list[int], groups: list[list], added: list[tuple[int, int]], h: int, bound: int, dtype: type
) -> list[tuple[int, np.ndarray]]:
    """(first center index, table) per group of _table_plan, from 0, then per added (start, q).

    table[x mod size] = sum of gd[d] t_d(x) over its d, t_d = _multiple_counts(d, h), all
    from one bincount. A group sums its d on their lcm in int64, one reshaped add per d,
    and repeats that to the least multiple of the lcm above bound / TABLE_SHARE (4096 at
    the default block) in dtype, which must hold every value: numpy adds rows longer than
    4096 entries about 1.6 times as fast as shorter ones, in int64 and in int32. The group
    tables share one array: held apart, the default sweep rows ran about 6% slower in a
    fresh process. An added q's table is its int64 slice of the bincount, q entries.
    """
    tabled = [d for _, ds in groups for d in ds] + [q for _, q in added]
    parts = iter(_multiple_counts_each(tabled, h, [gd[d] for d in tabled]))
    ends = list(accumulate((p * (bound // TABLE_SHARE // p + 1) for p, _ in groups), initial=0))
    store = np.empty(ends[-1], dtype=dtype)
    tables = []
    for (period, ds), lo, hi in zip(groups, ends, ends[1:]):
        t = np.zeros(period, dtype=np.int64)
        for d in ds:
            t.reshape(-1, d)[...] += next(parts)
        store[lo:hi].reshape(-1, period)[...] = t
        tables.append((0, store[lo:hi]))
    return tables + [(start, t) for (start, _), t in zip(added, parts)]


def _short_sums(
    gd: list[int], sieve: list[int], x0: int, h: int, p: np.ndarray, box: np.ndarray
) -> np.ndarray:
    """A(x) = sum_{|k| < h} (h - |k|) f(x + k) for x in (x0, x0 + b], as int64.

    b = box.size - h - 1 and f(m) is the sum of gd[d] over the d in sieve
    dividing m, tabulated into p (b + 2h entries) only on the block's span
    [x0 - h + 1, x0 + b + h - 1]. With box(y) = f(y) + ... + f(y + h - 1),
    A(x) = box(x - h + 1) + ... + box(x), so every partial sum stays below
    (2n + h) h sum|gd|. Both cumulative sums run in place behind the
    leading zeros p[0] and box[0], which nothing here writes, and A
    overwrites p[1:b + 1]: p and box are the caller's buffers, reused by
    every block.
    """
    b, lo = box.size - h - 1, x0 - h + 1
    ones = sieve[:1] == [1]  # d = 1 divides every m: a fill, not a sieve pass
    p[1:] = gd[1] if ones else 0  # p[1 + i] = f(lo + i)
    for d in sieve[1:] if ones else sieve:
        p[1 + (-lo) % d::d] += gd[d]
    np.add.accumulate(p, out=p)
    np.subtract(p[h:], p[:-h], out=box[1:])  # box[1 + j] = box(lo + j)
    np.add.accumulate(box, out=box)
    return np.subtract(box[h + 1:], box[1:b + 1], out=p[1:b + 1])


def _add_periodic(a: np.ndarray, t: np.ndarray, r: int) -> None:
    """a[i] += t[(r + i) mod t.size] for every i, in place, with no index array."""
    for dst, src in _periodic_slices(a, t, r):
        dst += src


def _periodic_slices(a: np.ndarray, t: np.ndarray, r: int):
    """Views (part of a, part of t) pairing a[i] with t[(r + i) mod q], q = t.size.

    A head up to the next period boundary, the whole periods as the rows of
    one (m, q) view against t, and a tail.
    """
    q = t.size
    head = min(q - r, a.size)
    yield a[:head], t[r:r + head]
    rest = a[head:]
    m = rest.size // q
    yield rest[:m * q].reshape(m, q), t
    yield rest[m * q:], t[:rest.size - m * q]


def _multiple_counts(q: int, h: int) -> np.ndarray:
    """t[x mod q] = sum of h - |qm - x| over multiples qm within h of x (x > h)."""
    return _multiple_counts_each([q], h, [1])[0]


def _multiple_counts_each(qs: list[int], h: int, scale: list[int]) -> list[np.ndarray]:
    """scale[i] times _multiple_counts(qs[i], h) for each i, from one bincount."""
    if not qs:
        return []
    k = np.arange(1 - h, h)
    ends = list(accumulate(qs, initial=0))
    idx = -k % np.array(qs, dtype=np.int64)[:, None] + np.array(ends[:-1], dtype=np.int64)[:, None]
    # float weights: every count is below h**2, exact in float64
    flat = np.bincount(idx.ravel(), np.tile(h - np.abs(k), len(qs)), ends[-1]).astype(np.int64)
    flat *= np.repeat(np.array(scale, dtype=np.int64), qs)
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


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
    """num, den (int64), R_den and F_h(num/den) over farey_columns(Q).

    One exact R_l per denominator from one integer pass over g, rounded
    once to float; the spectral weight of a fraction is R_den * F_h(num/den).
    """
    q_max = cfg.cutoff.q
    r = np.array([0.0] + [a / b for a, b in _ramanujan_ratios(cfg.g, q_max)])
    num, den = farey_columns(q_max)
    return num, den, r[den], den * _coefficients(num, den, cfg.h)


def _diagonal(num: np.ndarray, den: np.ndarray, r: np.ndarray, big_f: np.ndarray, n: int) -> float:
    keep = (r != 0.0) & (big_f != 0.0)
    r, big_f = r[keep], big_f[keep]
    if not r.size:  # Q = 2 with h even: F_h(1/2) = 0
        return 0.0
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
    wrapped_sum pair_key of spaced_pair_partition). Every block but the last adds its
    terms to exact per-part exponent buckets (_ExactSums); the last block
    and the buckets go into one math.fsum per part, so each part equals one
    fsum over all its terms whatever the block size, and a decomposition of
    one block is four plain fsums.
    """
    threshold = 1 / Fraction(a)
    m = num.size
    nonzero = w != 0.0
    carry = _ExactSums(4)
    parts = (0.0, 0.0, 0.0, 0.0)
    counts = dict.fromkeys(PAIR_COUNTERS, 0)
    counts["fractions"] = m
    counts["zero_weight_fractions"] = int(m - np.count_nonzero(nonzero))
    rows_per_block = max(1, PAIR_BLOCK // max(m, 1))  # row i holds i < m pairs
    for i0 in range(1, m, rows_per_block):  # row 0 holds none
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
        terms = wp * _x_sum_array(np.stack((dp[keep], sp[keep])), r, n)
        near_d, near_s = near_d[keep], near_s[keep]
        if i0 + rows_per_block < m:
            carry.add(terms, np.where(np.stack((near_d, near_s)), _NEAR_PARTS, _FAR_PARTS))
        else:
            term_d, term_s = terms
            blocks = (term_d[near_d], term_s[near_s], term_d[~near_d], term_s[~near_s])
            parts = tuple(carry.total(j, t) for j, t in enumerate(blocks))
    return parts, counts


class _ExactSums:
    """Exact per-part sums of float64 terms, carried in a fixed set of int64 buckets.

    np.frexp writes a finite term as mant * 2**(e - 53) with mant an
    integer below 2**53; e is raised to at least -1021, so a subnormal is an
    integer times 2**-1074 as well. add() splits mant = hi * 2**26 + lo with
    0 <= lo < 2**26 and sums hi and lo per (e, part) with one np.bincount
    each: a block's bucket sums are integers below 2**53, exact in float64,
    and go into int64 accumulators, exact up to 2**36 terms per part. There
    is one bucket per exponent, so the carry does not grow with the number
    of blocks. total() writes each accumulator as two exact floats, and one
    math.fsum over them and the part's remaining terms is the correctly
    rounded exact sum: the float of one fsum over all the part's terms.
    Non-finite terms are carried as their plain float sum, so such a part
    stays non-finite; a bucket whose value leaves the float range raises
    OverflowError, as fsum does on intermediate overflow.
    """

    E_MIN, E_MAX = -1021, 1024  # np.frexp exponents of the finite doubles, subnormals raised

    def __init__(self, parts: int):
        self.parts = parts
        self.acc = None  # hi and lo sums per (e, part), from the first add() on
        self.special = np.zeros(parts)  # plain sum of each part's non-finite terms

    def add(self, terms: np.ndarray, labels: np.ndarray) -> None:
        """Add each term to the part its label names (0 <= label < parts, same shape).

        At most 2**26 - 1 terms per call.
        """
        if terms.size >= 1 << 26:
            raise ValueError("at most 2**26 - 1 terms per call")
        terms, labels = terms.ravel(), labels.ravel()
        if self.acc is None:
            self.acc = np.zeros((2, (self.E_MAX - self.E_MIN + 1) * self.parts), dtype=np.int64)
        finite = np.isfinite(terms)
        if not finite.all():
            with np.errstate(invalid="ignore"):  # inf - inf is nan, non-finite as it should be
                np.add.at(self.special, labels[~finite], terms[~finite])
            terms = np.where(finite, terms, 0.0)
        e = np.frexp(terms)[1]
        np.maximum(e, self.E_MIN, out=e)
        mant = np.ldexp(terms, 53 - e)
        hi = np.floor(np.ldexp(mant, -26))
        lo = np.subtract(mant, hi * (1 << 26), out=mant)
        base = int(e.min(initial=self.E_MAX))
        e -= base
        idx = labels + e * self.parts  # buckets from exponent base on
        start = (base - self.E_MIN) * self.parts
        for acc, v in zip(self.acc, (hi, lo)):
            sums = np.bincount(idx, v)
            acc[start:start + sums.size] += sums.astype(np.int64)

    def total(self, part: int, tail=()) -> float:
        """One math.fsum over the part's added terms and the floats of tail."""
        tail = np.asarray(tail, dtype=np.float64).tolist()
        if self.acc is None:
            return fsum(tail)
        hi, lo = self.acc[:, part::self.parts]
        e = np.arange(self.E_MIN, self.E_MAX + 1)
        low = (1 << 26) - 1
        with np.errstate(over="ignore"):
            pieces = np.concatenate([
                np.ldexp((hi >> 26).astype(np.float64), e - 1),  # hi sums weigh 2**(e - 27)
                np.ldexp((hi & low).astype(np.float64), e - 27),
                np.ldexp((lo >> 26).astype(np.float64), e - 27),  # lo sums weigh 2**(e - 53)
                np.ldexp((lo & low).astype(np.float64), e - 53),
            ])
        pieces = pieces[pieces != 0.0]
        if not np.isfinite(pieces).all():
            raise OverflowError("intermediate overflow in exact sum")
        special = self.special[part]
        return fsum(pieces.tolist() + ([special] if special else []) + tail)


def _near(p: np.ndarray, r: np.ndarray, threshold: Fraction) -> np.ndarray:
    """Exact key p/r <= threshold, ties NEAR.

    float(p/r) and float(threshold) are correctly rounded, and rounding is
    monotone, so only keys whose float equals the threshold's can be
    misrouted; those few are compared as Fractions.
    """
    key = p / r
    cut = float(min(threshold, 1))  # every key is at most 1/2; a tiny A's 1/A overflows a float
    near = key < cut
    for t in np.flatnonzero(key == cut).tolist():
        near[t] = Fraction(int(p[t]), int(r[t])) <= threshold
    return near


def far_part_bound_check(cfg: IntegralConfig) -> FarPartReport:
    """Well-spaced parts against A*h, with the successive majorants alongside.

    Reports |far_delta| + |far_sigma|, its ratio to A*h, and the majorant
    scale * A * (sum over 1 < l <= Q of the reduced coefficient square sum)
    * harmonic factor, where scale is the squared worst l*|R_l| and the
    harmonic factor 2*H(K) counts the K enumerated fractions.
    """
    rep = selberg_integral_decomposed(cfg)
    far_abs = abs(rep.far_delta) + abs(rep.far_sigma)
    a_val = cfg.a_value
    ah = a_val * cfg.h
    q_max = cfg.cutoff.q
    w = cfg.window
    sq = fsum(coefficient_square_sum(ell, w, reduced_only=True) for ell in range(2, q_max + 1))
    k = rep.pairs["fractions"]
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


def majorant_compare(cfg: IntegralConfig, g_major: FunctionTable) -> MajorantReport:
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
    j_big = selberg_integral_direct(IntegralConfig(n=cfg.n, h=cfg.h, g=g_major, cutoff=cfg.cutoff))
    n_h = float(cfg.n) * cfg.h
    return MajorantReport(
        j_f=j_f,
        j_F=j_big,
        n_h=n_h,
        ratio=j_f / (j_big + n_h),
    )
