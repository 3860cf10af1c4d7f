"""Property suites: every identity, bound and partition checked at desk scale.

Five named suites group the module invariants:

  identities     two-forms equality, linearity, expansion bridge,
                 periodicity, plus the sieve-level exact identities
  spectral       expansion vs direct counts, nonnegativity, scaling,
                 Parseval, the square-sum bound, Ramanujan triangle
  farey          unimodularity, gap law, min-gap, partition coverage,
                 sorted-index spacing
  decomposition  reconstruction against the direct sweep, nonnegativity,
                 homogeneity, the rational bridge form, power-cutoff oracle
  lemma          well-spaced part vs A*h, exponential-sum bound,
                 near-pair positivity

Each check returns a PropertyReport {property, instances, max_error, pass};
exact identities report max_error 0.0 on success, tolerance checks report
their worst normalized error. fast=True shrinks grids for smoke runs; the
defaults are the full acceptance-scale grids.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, gcd, pi

import numpy as np

from . import calibration
from .arith import (
    FunctionTable,
    SupportCutoff,
    dirichlet_convolve_unit,
    divisors,
    mobius_invert,
    power_floor,
    preset_table,
    random_rational_table,
    sieve_divisor_count,
)
from .farey import (
    farey_columns,
    farey_enumerate,
    farey_full,
    min_gap,
    sigma_key,
    spaced_pair_partition,
)
from .integral import (
    IntegralConfig,
    majorant_compare,
    selberg_integral_decomposed,
    selberg_integral_direct,
)
from .short_sums import (
    FejerWindow,
    PrefixSums,
    averaged_double_sum,
    chi_tilde_direct,
    fejer_short_sum,
    mean_value,
)
from .spectral import (
    _coefficients,
    chi_tilde_expansion,
    coefficient_square_sum,
    coefficient_square_sums,
    exp_sum_closed_form,
    ramanujan_coefficient,
)


@dataclass
class PropertyReport:
    name: str
    instances: int
    max_error: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        # checks may compute with numpy; keep the report JSON-serializable
        self.max_error = float(self.max_error)
        self.passed = bool(self.passed)

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "instances": self.instances,
            "max_error": self.max_error,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    properties: list[PropertyReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "properties": [p.to_json() for p in self.properties],
        }


def _exact_report(name: str, instances: int, failures: int, note: str = "") -> PropertyReport:
    return PropertyReport(name, instances, 0.0 if failures == 0 else float(failures), failures == 0, note)


# ----------------------------------------------------------------------
# identities suite
# ----------------------------------------------------------------------

def check_two_forms(fast: bool = False) -> PropertyReport:
    """I1: triangular short sum equals the double-average form, exactly.

    Exhaustive over the (x, h) grid at max_n = 500 for a seeded integer
    table, the divisor-count table on a coarser h set, and a seeded
    rational table at max_n = 80.
    """
    max_n = 120 if fast else 500
    h_all = (2, 4) if fast else tuple(range(2, 21, 2))
    rng = random.Random(20240)
    f_int = FunctionTable([rng.randint(-999, 999) for _ in range(max_n)])
    instances = failures = 0
    for f, hs in (
        (f_int, h_all),
        (sieve_divisor_count(max_n), (2,) if fast else (2, 10, 20)),
        (random_rational_table(80, seed=77), h_all),
    ):
        for h in hs:
            w = FejerWindow(h)
            sums = PrefixSums(f)
            for x in range(1, f.max_n - h + 1):
                instances += 1
                if fejer_short_sum(f, x, w, sums) != averaged_double_sum(f, x, w):
                    failures += 1
    return _exact_report("I1", instances, failures, "two-forms identity, exact")


def check_linearity(samples: int = 200) -> PropertyReport:
    """I2: the short sum is linear in f, exactly in rationals."""
    rng = random.Random(5150)
    max_n = 60
    f1 = random_rational_table(max_n, seed=1)
    f2 = random_rational_table(max_n, seed=2)
    failures = 0
    for _ in range(samples):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        h = rng.choice((2, 4, 6))
        w = FejerWindow(h)
        x = rng.randint(1, max_n - h)
        combo = FunctionTable([a * u + b * v for u, v in zip(f1.values, f2.values)])
        lhs = fejer_short_sum(combo, x, w)
        rhs = a * fejer_short_sum(f1, x, w) + b * fejer_short_sum(f2, x, w)
        if lhs != rhs:
            failures += 1
    return _exact_report("I2", samples, failures, "linearity, exact")


def check_expansion_bridge() -> PropertyReport:
    """I3: short sum minus mean value equals sum of g(q) chi_tilde_q(x), exactly.

    Fixed support [1, Q] with Q <= x and x > h makes the bridge exact with
    no tail term.
    """
    instances = failures = 0
    for q_max, seed in ((4, 11), (7, 12), (12, 13)):
        g = random_rational_table(q_max, seed=seed)
        for h in (2, 4, 8):
            w = FejerWindow(h)
            f = dirichlet_convolve_unit(g, 3 * q_max + 80 + h)
            sums = PrefixSums(f)
            for x in range(max(h + 1, q_max), f.max_n - h + 1, 7):
                lhs = fejer_short_sum(f, x, w, sums) - mean_value(g, x, w)
                rhs = sum(g[q] * chi_tilde_direct(q, x, w) for q in range(1, q_max + 1))
                instances += 1
                if lhs != rhs:
                    failures += 1
    return _exact_report("I3", instances, failures, "expansion bridge, exact, E = 0")


def check_periodicity() -> PropertyReport:
    """I4: chi_tilde_q(x) = chi_tilde_q(x + q) for x > h, exactly."""
    instances = failures = 0
    for q in (1, 2, 3, 5, 8, 12, 30, 97):
        for h in (2, 4, 10):
            w = FejerWindow(h)
            for x in range(h + 1, h + 1 + 2 * q):
                instances += 1
                if chi_tilde_direct(q, x, w) != chi_tilde_direct(q, x + q, w):
                    failures += 1
    return _exact_report("I4", instances, failures, "periodicity, exact")


def check_inversion_round_trip(fast: bool = False) -> PropertyReport:
    """convolve-then-invert and invert-then-convolve are identities, exactly."""
    instances = failures = 0
    sizes = (40, 120) if fast else (40, 200, 500)
    for i, max_n in enumerate(sizes):
        g = random_rational_table(max_n, seed=300 + i)
        instances += 1
        if mobius_invert(dirichlet_convolve_unit(g, max_n)) != g:
            failures += 1
        f = random_rational_table(max_n, seed=400 + i)
        instances += 1
        if dirichlet_convolve_unit(mobius_invert(f), max_n) != f:
            failures += 1
    return _exact_report("arith-round-trip", instances, failures, "Mobius inversion, exact")


def check_majorant_transfer() -> PropertyReport:
    """|g| <= G pointwise implies |g*1| <= G*1 pointwise, exactly."""
    rng = random.Random(888)
    instances = failures = 0
    for trial in range(20):
        max_n = rng.randint(20, 120)
        g = random_rational_table(max_n, seed=1000 + trial)
        bigg = FunctionTable(
            [abs(v) + Fraction(rng.randint(0, 100), 100) for v in g.values]
        )
        f = dirichlet_convolve_unit(g, max_n)
        bigf = dirichlet_convolve_unit(bigg, max_n)
        for n in range(1, max_n + 1):
            instances += 1
            if abs(f[n]) > bigf[n]:
                failures += 1
    return _exact_report("arith-majorant-transfer", instances, failures)


def check_divisor_identity() -> PropertyReport:
    """d = unit * unit on the full domain, exactly."""
    max_n = 200
    d = sieve_divisor_count(max_n)
    conv = dirichlet_convolve_unit(preset_table("unit", max_n), max_n)
    failures = sum(1 for a, b in zip(d.values, conv.values) if a != b)
    return _exact_report("arith-divisor-identity", max_n, failures)


# ----------------------------------------------------------------------
# spectral suite
# ----------------------------------------------------------------------

def _chi_direct_period(q: int, h: int) -> np.ndarray:
    """chi_tilde_q on one period via windowed counts: index r = x mod q, x > h."""
    vals = np.empty(q)
    base = h / q
    for r in range(q):
        s = -h + ((h - r) % q)  # smallest s >= -h with s = -r (mod q)
        acc = 0.0
        while s <= h:
            acc += 1.0 - abs(s) / h
            s += q
        vals[r] = acc - base
    return vals


def check_expansion_identity(fast: bool = False) -> PropertyReport:
    """P1: expansion equals direct counts within 1e-9 * (1 + h).

    Both sides are exactly q-periodic in x for x > h, so one period of
    residues covers the whole x in (h, h + 2q] grid (each residue twice);
    a seeded sample of scalar-op evaluations is checked on top.
    """
    q_max = 60 if fast else 200
    h_all = (2, 8) if fast else tuple(range(2, 65, 2))
    worst = 0.0
    instances = 0
    for q in range(1, q_max + 1):
        for h in h_all:
            expansion = chi_tilde_expansion(q, np.arange(q), FejerWindow(h))
            diff = np.abs(expansion - _chi_direct_period(q, h))
            worst = max(worst, float(diff.max()) / (1.0 + h))
            instances += 2 * q  # x in (h, h + 2q] hits each residue twice
    # tie the scalar operations to the period arrays
    rng = random.Random(314)
    for _ in range(50 if fast else 300):
        q = rng.randint(1, q_max)
        h = rng.choice(h_all)
        w = FejerWindow(h)
        x = rng.randint(h + 1, h + 2 * q)
        e = chi_tilde_expansion(q, x, w)
        d = float(chi_tilde_direct(q, x, w))
        worst = max(worst, abs(e - d) / (1.0 + h))
        instances += 1
    return PropertyReport("P1", instances, worst, worst <= 1e-9, "normalized by (1 + h)")


def check_nonnegativity(fast: bool = False) -> PropertyReport:
    """P2: every expansion coefficient is nonnegative."""
    q_max = 100 if fast else 300
    hs = np.array([[2], [6], [22], [64]])
    instances = failures = 0
    for q in range(2, q_max + 1):
        c = _coefficients(np.arange(1, q // 2 + 1), q, hs)
        instances += c.size
        failures += int(np.count_nonzero(c < 0.0))
    return _exact_report("P2", instances, failures)


def check_scaling() -> PropertyReport:
    """P3: c_{d j, d q} = c_{j,q}/d to relative 1e-12, exhaustive for d q <= 500."""
    j, q, d = np.array(
        [
            (j, q, d)
            for q in range(2, 251)
            for j in range(1, q // 2 + 1)
            if gcd(j, q) == 1
            for d in range(2, 500 // q + 1)
        ]
    ).T
    worst = 0.0
    for h in (2, 8, 34):
        base = _coefficients(j, q, h)
        scaled = _coefficients(d * j, d * q, h)
        zero = base == 0.0
        if np.any(scaled[zero] != 0.0):
            worst = max(worst, 1.0)
        rel = np.abs(scaled[~zero] - base[~zero] / d[~zero]) / (base[~zero] / d[~zero])
        worst = max(worst, float(rel.max(initial=0.0)))
    return PropertyReport("P3", 3 * j.size, worst, worst <= 1e-12)


def check_parseval(fast: bool = False) -> PropertyReport:
    """P4: period mean of chi_tilde**2 equals a quarter of the full square sum.

    The left side comes from windowed counts (periodic extension, x > h),
    the right from the coefficient formula, so the sides are independent.
    """
    q_max = 60 if fast else 200
    h_all = (2, 8) if fast else tuple(range(2, 41, 2))
    worst = 0.0
    instances = 0
    for q in range(2, q_max + 1):
        for h in h_all:
            lhs = float(np.mean(_chi_direct_period(q, h) ** 2))
            rhs = 0.25 * coefficient_square_sum(q, FejerWindow(h))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
            instances += 1
    return PropertyReport("P4", instances, worst, worst <= 1e-9, "relative")


def check_square_sum_bound(fast: bool = False) -> PropertyReport:
    """P5: full square sum <= C * min(1, h/q) with the frozen constant.

    One table over the whole grid (coefficient_square_sums); a seeded
    sample revalidates it against the coefficient_square_sum operation.
    """
    q_max = 400 if fast else 2000
    h_max = 40 if fast else 200
    hs = np.arange(2, h_max + 1, 2)
    qq = np.arange(2, q_max + 1)
    c_frozen = calibration.SQUARE_SUM_BOUND_C
    sums = coefficient_square_sums(q_max, hs)
    worst = float((sums[:, 2:] / (c_frozen * np.minimum(1.0, hs[:, None] / qq))).max())
    rng = random.Random(99)
    agree = 0.0
    for _ in range(40 if fast else 160):
        q = rng.randint(2, q_max)
        h = rng.randrange(2, h_max + 1, 2)
        op = coefficient_square_sum(q, FejerWindow(h))
        agree = max(agree, abs(op - sums[h // 2 - 1, q]) / (1.0 + op))
    passed = worst <= 1.0 and agree <= 1e-12
    return PropertyReport(
        "P5", hs.size * (q_max - 1), worst, passed, f"ratio to C*min(1,h/q), C={c_frozen}"
    )


def check_ramanujan_triangle(samples: int = 100) -> PropertyReport:
    """P6: |R_l(g*1)| <= R_l(G*1) when |g| <= G pointwise, exactly."""
    rng = random.Random(1234)
    instances = failures = 0
    for trial in range(samples):
        q_max = rng.randint(3, 40)
        g = random_rational_table(q_max, seed=5000 + trial)
        bigg = FunctionTable(
            [abs(v) + Fraction(rng.randint(0, 50), 100) for v in g.values]
        )
        for ell in range(1, q_max + 1):
            instances += 1
            if abs(ramanujan_coefficient(g, ell, q_max)) > ramanujan_coefficient(
                bigg, ell, q_max
            ):
                failures += 1
    return _exact_report("P6", instances, failures, "triangle inequality, exact")


# ----------------------------------------------------------------------
# farey suite
# ----------------------------------------------------------------------

def _cross(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """b c - a d for each consecutive pair a/b < c/d."""
    return num[1:] * den[:-1] - num[:-1] * den[1:]


def check_unimodularity(q_top: int = 300) -> PropertyReport:
    """F1: consecutive ambient fractions satisfy b c - a d = 1, all Q <= q_top.

    Checked per order on the int64 columns of farey_full.
    """
    instances = failures = 0
    for q in range(1, q_top + 1):
        num, den = farey_columns(farey_full(q))
        instances += num.size - 1
        failures += int(np.count_nonzero(_cross(num, den) != 1))
    return _exact_report("F1", instances, failures)


def check_gap_law(q_top: int = 300) -> PropertyReport:
    """F2: consecutive gaps equal 1/(b d) exactly (integer cross-check)."""
    instances = failures = 0
    for q in range(2, q_top + 1):
        # v - u == 1/(den_u den_v)  <=>  unimodular cross-product
        cross = _cross(*farey_columns(farey_enumerate(q)))
        instances += cross.size
        failures += int(np.count_nonzero(cross != 1))
    # spot-check the Fraction arithmetic form as well
    for q in (5, 17, 120):
        fr = farey_enumerate(q).fractions
        for u, v in zip(fr, fr[1:]):
            instances += 1
            if v.value - u.value != Fraction(1, u.den * v.den):
                failures += 1
    return _exact_report("F2", instances, failures)


def check_min_gap(q_top: int = 300) -> PropertyReport:
    """min_gap >= 1/Q**2 for every enumerable order.

    Consecutive gaps are 1/(b d) exactly (F2), so min_gap = 1/max(b d) and
    the bound is the integer statement max(b d) <= Q**2; the min_gap
    operation itself is tied in on a sample of orders.
    """
    instances = failures = 0
    for q in range(3, q_top + 1):
        _, den = farey_columns(farey_enumerate(q))
        worst_prod = int((den[:-1] * den[1:]).max())
        instances += 1
        if worst_prod > q * q:
            failures += 1
        if q in (3, 5, 48, 121, 300):
            instances += 1
            if min_gap(farey_enumerate(q)) != Fraction(1, worst_prod):
                failures += 1
    return _exact_report("min-gap", instances, failures)


def check_partition_exhaustive() -> PropertyReport:
    """F3: NEAR and FAR tile the oriented pairs exactly once, both modes."""
    instances = failures = 0
    for q, a in ((5, 10), (8, 3.5), (12, 144.0), (17, 2), (24, 1e9)):
        seq = farey_enumerate(q)
        m = len(seq)
        expected = {
            (i, k) for i in range(m) for k in range(i)
        }
        for mode in ("difference", "wrapped_sum"):
            part = spaced_pair_partition(seq, seq, a, mode)
            near, far = set(part.near), set(part.far)
            instances += len(expected)
            if near | far != expected or near & far:
                failures += 1
    return _exact_report("F3", instances, failures)


def check_sorted_spacing(q_top: int = 300) -> PropertyReport:
    """F4: value[n] - value[m] >= (n - m) * min_gap for n > m.

    Literal over all index pairs for small orders (integer
    cross-multiplication, exact); for larger orders every consecutive gap
    is checked against min_gap, which telescopes to the same statement.
    """
    instances = failures = 0
    for q in range(3, q_top + 1):
        num, den = farey_columns(farey_enumerate(q))
        gd = int((den[:-1] * den[1:]).max())  # min_gap = 1/gd
        if q <= 60:
            n, m = np.tril_indices(num.size, -1)
        else:
            m = np.arange(num.size - 1)
            n = m + 1
        instances += n.size
        # a_n/b_n - a_m/b_m >= (n - m)/gd, cross-multiplied
        lhs = (num[n] * den[m] - num[m] * den[n]) * gd
        failures += int(np.count_nonzero(lhs < (n - m) * den[n] * den[m]))
    return _exact_report("F4", instances, failures)


# ----------------------------------------------------------------------
# decomposition suite
# ----------------------------------------------------------------------

def check_reconstruction(fast: bool = False) -> tuple[PropertyReport, PropertyReport]:
    """J1 and J2 over the canonical grid plus randomized larger instances.

    J1: |total - direct| <= 1e-8 (1 + direct) on the exhaustive grid and
    <= 1e-6 (1 + direct) on 50 randomized instances with N up to 2500.
    J2: direct >= 0 and diagonal >= 0 throughout the same sweep.
    """
    worst = 0.0
    instances = 0
    neg = 0
    for cfg in calibration.reconstruction_grid(n_step=8 if fast else 1):
        rep = selberg_integral_decomposed(cfg)
        worst = max(worst, rep.abs_gap / (1.0 + rep.direct))
        instances += 1
        if rep.direct < 0 or rep.diagonal < 0:
            neg += 1
    ok = worst <= 1e-8
    rng = random.Random(424242)
    worst_big = 0.0
    big_n = 10 if fast else 50
    for trial in range(big_n):
        n = rng.randint(250, 2500)
        h = rng.choice((2, 4, 8, 12, 16))
        if 4 * h > n:
            h = 2
        q = rng.randint(2, 24)
        g = random_rational_table(q, seed=7000 + trial)
        cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q))
        rep = selberg_integral_decomposed(cfg)
        worst_big = max(worst_big, rep.abs_gap / (1.0 + rep.direct))
        instances += 1
        if rep.direct < 0 or rep.diagonal < 0:
            neg += 1
    j1 = PropertyReport(
        "J1",
        instances,
        max(worst, worst_big),
        ok and worst_big <= 1e-6,
        "relative gap; grid tol 1e-8, randomized tol 1e-6",
    )
    j2 = _exact_report("J2", instances, neg, "direct >= 0 and diagonal >= 0")
    return j1, j2


def check_homogeneity(samples: int = 12) -> PropertyReport:
    """J3: scaling g by c scales the exact mean square by c**2, exactly."""
    rng = random.Random(31337)
    failures = 0
    for trial in range(samples):
        n = rng.randint(8, 40)
        q = rng.randint(1, min(8, n))
        g = random_rational_table(q, seed=8000 + trial)
        c = Fraction(rng.randint(-9, 9) or 3, rng.randint(1, 9))
        cut = SupportCutoff.fixed(q)
        base = selberg_integral_direct(
            IntegralConfig(n=n, h=2, g=g, cutoff=cut), exact=True
        )
        scaled = selberg_integral_direct(
            IntegralConfig(n=n, h=2, g=g.scale(c), cutoff=cut), exact=True
        )
        if scaled != c * c * base:
            failures += 1
    return _exact_report("J3", samples, failures, "homogeneity, exact")


def check_ramanujan_form() -> PropertyReport:
    """J4: exact sweep equals sum over x of (sum_q g(q) chi_tilde_q(x))**2."""
    instances = failures = 0
    for n, h, q, seed in ((8, 2, 4, 1), (12, 2, 6, 2), (20, 4, 5, 3), (16, 2, 12, 4)):
        g = random_rational_table(q, seed=9000 + seed)
        w = FejerWindow(h)
        direct = selberg_integral_direct(
            IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q)), exact=True
        )
        bridge = sum(
            sum(g[qq] * chi_tilde_direct(qq, x, w) for qq in range(1, q + 1)) ** 2
            for x in range(n + 1, 2 * n + 1)
        )
        instances += 1
        if direct != bridge:
            failures += 1
    return _exact_report("J4", instances, failures, "rational bridge form, exact")


def check_power_cutoff_oracle(fast: bool = False) -> PropertyReport:
    """J6: power-cutoff exact sweep equals the literal per-x double loop.

    The implementation accumulates g(q) * chi_tilde_q(x) over q up to
    floor(sqrt(x + h)); the oracle tabulates f per center through divisor
    sums and subtracts the per-x mean value. Equality is exact.
    """
    ns = (8, 16, 33) if fast else (8, 16, 33, 50, 75, 100)
    instances = failures = 0
    for i, n in enumerate(ns):
        for h in (2, 4):
            if h > 2 and 4 * h > n:
                continue
            q_top = power_floor(2 * n + h, 0.5)
            g = random_rational_table(q_top, seed=600 + i)
            cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.power(0.5))
            got = selberg_integral_direct(cfg, exact=True)
            want = Fraction(0)
            for x in range(n + 1, 2 * n + 1):
                qx = power_floor(x + h, 0.5)
                short = Fraction(0)
                for m in range(x - h, x + h + 1):
                    fm = sum(g.get(dd) for dd in divisors(m) if dd <= qx)
                    short += (1 - Fraction(abs(m - x), h)) * fm
                mv = h * sum(Fraction(g.get(d)) / d for d in range(1, qx + 1))
                want += (short - mv) ** 2
            instances += 1
            if got != want:
                failures += 1
    return _exact_report("J6", instances, failures, "power-cutoff oracle, exact")


# ----------------------------------------------------------------------
# lemma suite
# ----------------------------------------------------------------------

def check_far_part_bound(fast: bool = False) -> PropertyReport:
    """Well-spaced parts: |far_delta| + |far_sigma| <= C_far * A * h.

    Sweeps the canonical grid with A = N and A = N log N; C_far is the
    frozen calibration constant.
    """
    c_far = calibration.FAR_PART_BOUND_C
    worst = 0.0
    instances = 0
    for cfg in calibration.reconstruction_grid(n_step=8 if fast else 1):
        for a in (float(cfg.n), None):
            c = IntegralConfig(
                n=cfg.n, h=cfg.h, g=cfg.g, cutoff=cfg.cutoff, a=a, g_name=cfg.g_name
            )
            rep = selberg_integral_decomposed(c)
            far = abs(rep.far_delta) + abs(rep.far_sigma)
            worst = max(worst, far / (c_far * c.a_value * c.h))
            instances += 1
    return PropertyReport(
        "lemma-far-bound", instances, worst, worst <= 1.0, f"ratio to C_far*A*h, C_far={c_far}"
    )


def check_exp_sum_bound(samples: int = 1000) -> PropertyReport:
    """|sum_{x~N} e(alpha x)| <= min(N, 1/(2 ||alpha||)), via the closed form."""
    rng = random.Random(2718)
    worst = 0.0
    brute_err = 0.0
    for i in range(samples):
        alpha = rng.random()
        n = rng.randint(1, 10_000)
        v = abs(exp_sum_closed_form(alpha, n))
        dist = min(alpha % 1.0, 1.0 - alpha % 1.0)
        bound = min(float(n), 1.0 / (2.0 * dist))
        worst = max(worst, v / bound)
        if i % 100 == 0:
            m = rng.randint(1, 300)
            brute = sum(
                complex(cos(2 * pi * alpha * x), math.sin(2 * pi * alpha * x))
                for x in range(m + 1, 2 * m + 1)
            )
            brute_err = max(
                brute_err, abs(exp_sum_closed_form(alpha, m) - brute) / (1 + abs(brute))
            )
    passed = worst <= 1.0 and brute_err <= 1e-9
    return PropertyReport("lemma-exp-sum-bound", samples, worst, passed, "ratio to min(N, 1/(2||a||))")


def check_taylor_positivity() -> PropertyReport:
    """J5: with N * (largest NEAR key) <= 1/8, every NEAR cosine x-sum is positive."""
    instances = 0
    positive_failures = 0
    found_near = 0
    for n in range(8, 19):
        for q in (10, 11, 12):
            seq = farey_enumerate(q)
            a = 8.0 * n
            for mode in ("difference", "wrapped_sum"):
                part = spaced_pair_partition(seq, seq, a, mode)
                for i, k in part.near:
                    found_near += 1
                    if mode == "difference":
                        key = seq[i].value - seq[k].value
                    else:
                        key = sigma_key(seq[i], seq[k])
                    assert n * key <= Fraction(1, 8)
                    instances += 1
                    if exp_sum_closed_form(key, n).real <= 0.0:
                        positive_failures += 1
    note = f"{found_near} NEAR pairs at A = 8N"
    rep = _exact_report("J5", instances, positive_failures, note)
    rep.passed = rep.passed and found_near > 0
    return rep


# ----------------------------------------------------------------------
# growth and performance experiments (acceptance extras)
# ----------------------------------------------------------------------

def majorant_growth_experiment(
    exponents: range = range(10, 17), growth_exponent: float = 0.2
):
    """Mean-square ratio growth for g = mobius, G = mobius**2 across N = 2**e.

    Q = floor(N**0.3), h = floor(N**0.4) rounded down to even. The assertion
    ratio(N) <= ratio(N0) * (N/N0)**growth_exponent is a frozen desk-scale
    proxy for growth slower than every fixed power; 0.2 is an
    implementation choice, not a derived constant.

    Returns (rows, passed, worst_excess) where rows are MajorantReport with
    bound fields attached.
    """
    rows = []
    base_ratio = None
    n0 = 2 ** exponents[0]
    worst = 0.0
    for e in exponents:
        n = 2 ** e
        h = even_floor(n ** 0.4)
        q = power_floor(n, 0.3)
        g = preset_table("mobius", q)
        big = preset_table("mobius-squared", q)
        cfg = IntegralConfig(
            n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q), g_name="mobius"
        )
        rep = majorant_compare(cfg, big, "mobius-squared")
        if base_ratio is None:
            base_ratio = rep.ratio
        bound = base_ratio * (n / n0) ** growth_exponent
        rows.append((rep, bound))
        worst = max(worst, rep.ratio / bound)
    return rows, worst <= 1.0, worst


def even_floor(v: float) -> int:
    """Round down to the nearest even integer, at least 2."""
    return max(2, 2 * (int(v + 1e-9) // 2))


def performance_probe(n: int = 10 ** 6, h: int = 10 ** 3, q: int = 10 ** 3):
    """Time one float direct sweep at scale; returns (seconds, value)."""
    g = preset_table("mobius", q)
    cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q), g_name="mobius")
    t0 = time.perf_counter()
    val = selberg_integral_direct(cfg)
    return time.perf_counter() - t0, val


# ----------------------------------------------------------------------
# suite assembly
# ----------------------------------------------------------------------

def suite_identities(fast: bool = False) -> SuiteReport:
    return SuiteReport(
        "identities",
        [
            check_two_forms(fast),
            check_linearity(),
            check_expansion_bridge(),
            check_periodicity(),
            check_inversion_round_trip(fast),
            check_majorant_transfer(),
            check_divisor_identity(),
        ],
    )


def suite_spectral(fast: bool = False) -> SuiteReport:
    return SuiteReport(
        "spectral",
        [
            check_expansion_identity(fast),
            check_nonnegativity(fast),
            check_scaling(),
            check_parseval(fast),
            check_square_sum_bound(fast),
            check_ramanujan_triangle(),
        ],
    )


def suite_farey(fast: bool = False) -> SuiteReport:
    top = 100 if fast else 300
    return SuiteReport(
        "farey",
        [
            check_unimodularity(top),
            check_gap_law(top),
            check_min_gap(top),
            check_partition_exhaustive(),
            check_sorted_spacing(top),
        ],
    )


def suite_decomposition(fast: bool = False) -> SuiteReport:
    j1, j2 = check_reconstruction(fast)
    return SuiteReport(
        "decomposition",
        [j1, j2, check_homogeneity(), check_ramanujan_form(), check_power_cutoff_oracle(fast)],
    )


def suite_lemma(fast: bool = False) -> SuiteReport:
    return SuiteReport(
        "lemma",
        [
            check_far_part_bound(fast),
            check_exp_sum_bound(),
            check_taylor_positivity(),
        ],
    )


SUITES = {
    "identities": suite_identities,
    "spectral": suite_spectral,
    "farey": suite_farey,
    "decomposition": suite_decomposition,
    "lemma": suite_lemma,
}


def run_suite(name: str, fast: bool = False) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](fast=fast)
