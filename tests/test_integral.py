import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import msi.integral as integral_mod
from msi.arith import (
    FunctionTable,
    SupportCutoff,
    dirichlet_convolve_unit,
    divisors,
    power_floor,
    preset_table,
    random_rational_table,
)
from msi.farey import delta_key, farey_enumerate, sigma_key, spaced_pair_partition
from msi.integral import (
    IntegralConfig,
    ResourceBudgetError,
    diagonal_term,
    far_part_bound_check,
    majorant_compare,
    selberg_integral_decomposed,
    selberg_integral_direct,
)
from msi.short_sums import FejerWindow, mean_value
from msi.spectral import exp_sum_closed_form, fejer_kernel_value, ramanujan_coefficient


def brute_direct(g, n, h):
    """Literal rational sweep for a fixed cutoff at the g table size."""
    w = FejerWindow(h)
    f = dirichlet_convolve_unit(g, 2 * n + h)
    total = Fraction(0)
    for x in range(n + 1, 2 * n + 1):
        short = sum(
            (1 - Fraction(abs(m - x), h)) * f[m] for m in range(x - h, x + h + 1)
        )
        total += (short - mean_value(g, x, w)) ** 2
    return total


def forbid_work(monkeypatch):
    """Make the direct sweep and the Farey enumeration fail if a guard lets them run."""
    def untouchable(*args, **kwargs):
        raise AssertionError("work started before the guard")

    monkeypatch.setattr(integral_mod, "selberg_integral_direct", untouchable)
    monkeypatch.setattr(integral_mod, "farey_enumerate", untouchable)


class TestConfig:
    def test_odd_h_rejected(self):
        with pytest.raises(ValueError):
            IntegralConfig(n=30, h=3, g=preset_table("unit", 5), cutoff=SupportCutoff.fixed(5))

    def test_h_must_fit_quarter_once_above_two(self):
        with pytest.raises(ValueError):
            IntegralConfig(n=8, h=4, g=preset_table("unit", 4), cutoff=SupportCutoff.fixed(4))
        IntegralConfig(n=16, h=4, g=preset_table("unit", 4), cutoff=SupportCutoff.fixed(4))
        IntegralConfig(n=6, h=2, g=preset_table("unit", 3), cutoff=SupportCutoff.fixed(3))

    def test_fixed_q_capped_by_n_plus_h(self):
        with pytest.raises(ValueError):
            IntegralConfig(n=8, h=2, g=preset_table("unit", 11), cutoff=SupportCutoff.fixed(11))

    def test_default_spacing_parameter(self):
        cfg = IntegralConfig(n=32, h=2, g=preset_table("unit", 4), cutoff=SupportCutoff.fixed(4))
        assert math.isclose(cfg.a_value, 32 * math.log(32))
        cfg2 = IntegralConfig(n=32, h=2, g=preset_table("unit", 4), cutoff=SupportCutoff.fixed(4), a=99.0)
        assert cfg2.a_value == 99.0


class TestDirect:
    def test_delta_vanishes(self):
        cfg = IntegralConfig(n=24, h=2, g=preset_table("delta1", 6), cutoff=SupportCutoff.fixed(6))
        assert selberg_integral_direct(cfg) == 0.0
        assert selberg_integral_direct(cfg, exact=True) == 0

    def test_mobius_n8_hand_value(self):
        g = preset_table("mobius", 4)
        cfg = IntegralConfig(n=8, h=2, g=g, cutoff=SupportCutoff.fixed(4))
        exact = selberg_integral_direct(cfg, exact=True)
        assert exact == brute_direct(g, 8, 2) == Fraction(17, 36)
        assert math.isclose(selberg_integral_direct(cfg), 17 / 36, rel_tol=1e-12)

    def test_float_matches_exact_on_random_configs(self):
        rng = random.Random(12)
        configs = []
        for _ in range(8):
            n = rng.randint(8, 60)
            q = rng.randint(1, min(10, n))
            g = random_rational_table(q, seed=rng.randint(0, 999))
            configs.append((n, g, SupportCutoff.fixed(q)))
        for theta in (0.5, 0.6):
            for _ in range(4):
                n = rng.randint(8, 60)
                g = random_rational_table(power_floor(2 * n + 2, theta), seed=rng.randint(0, 999))
                configs.append((n, g, SupportCutoff.power(theta)))
        for preset in ("mobius", "mobius-squared"):  # 2,000 terms in the mean
            configs.append((2000, preset_table(preset, 2000), SupportCutoff.fixed(2000)))
        for n, g, cutoff in configs:
            cfg = IntegralConfig(n=n, h=2, g=g, cutoff=cutoff)
            ex = float(selberg_integral_direct(cfg, exact=True))
            fl = selberg_integral_direct(cfg)
            assert math.isclose(ex, fl, rel_tol=1e-14)

    @pytest.mark.parametrize(
        "preset, want", [("mobius", 1893.755055652266), ("mobius-squared", 2381.3173344089264)]
    )
    def test_last_bits_at_two_to_the_18(self, preset, want):
        # correctly rounded exact values (perfbench/make_refs.py) for N = 2^18, h = 146, Q = 42
        cfg = IntegralConfig(n=262144, h=146, g=preset_table(preset, 42), cutoff=SupportCutoff.fixed(42))
        assert float(selberg_integral_direct(cfg, exact=True)) == want
        assert abs(selberg_integral_direct(cfg) - want) <= 4e-16 * want

    def test_large_fixed_cutoff_stays_linear(self):
        # Q = N = 10^5: the mean must not go through lcm(1, ..., Q), about 144,000 bits
        n, h, q = 10 ** 5, 2, 10 ** 5
        g = preset_table("mobius", q)
        cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q))
        t0 = time.perf_counter()
        got = selberg_integral_direct(cfg)
        elapsed = time.perf_counter() - t0
        f = np.zeros(2 * n + h + 1)
        for d in range(1, q + 1):
            f[d::d] += float(g[d])
        short = sum((1 - abs(k) / h) * f[n + 1 + k:2 * n + 1 + k] for k in range(1 - h, h))
        mean = h * math.fsum(float(g[d]) / d for d in range(1, q + 1))
        want = math.fsum((short - mean) ** 2)
        assert math.isclose(got, want, rel_tol=1e-9)
        assert elapsed < 5.0

    def test_int64_guard_before_any_work(self, monkeypatch):
        g = FunctionTable([1, Fraction(1, 10 ** 15)])  # common denominator D = 10^15
        small = IntegralConfig(n=100, h=2, g=g, cutoff=SupportCutoff.fixed(2))
        assert selberg_integral_direct(small, exact=True) == brute_direct(g, 100, 2)

        def untouchable(*args, **kwargs):
            raise AssertionError("work started before the guard")

        monkeypatch.setattr(integral_mod.np, "cumsum", untouchable)
        monkeypatch.setattr(integral_mod, "_short_sums", untouchable)
        # (2N + 2h) h D sum|g| = 40008 * (10^15 + 1) >= 2^63
        for cutoff in (SupportCutoff.fixed(2), SupportCutoff.power(0.5)):
            cfg = IntegralConfig(n=10 ** 4, h=2, g=g, cutoff=cutoff)
            for exact in (False, True):
                with pytest.raises(ResourceBudgetError, match="int64"):
                    selberg_integral_direct(cfg, exact=exact)

    def test_homogeneity_exact(self):
        g = random_rational_table(6, seed=77)
        cut = SupportCutoff.fixed(6)
        base = selberg_integral_direct(IntegralConfig(n=12, h=2, g=g, cutoff=cut), exact=True)
        doubled = selberg_integral_direct(
            IntegralConfig(n=12, h=2, g=g.scale(2), cutoff=cut), exact=True
        )
        assert doubled == 4 * base

    def test_cutoff_restricts_g(self):
        g = preset_table("unit", 10)
        full = selberg_integral_direct(IntegralConfig(n=20, h=2, g=g, cutoff=SupportCutoff.fixed(10)), exact=True)
        cut = selberg_integral_direct(IntegralConfig(n=20, h=2, g=g, cutoff=SupportCutoff.fixed(4)), exact=True)
        g4 = preset_table("unit", 4)
        assert cut == selberg_integral_direct(IntegralConfig(n=20, h=2, g=g4, cutoff=SupportCutoff.fixed(4)), exact=True)
        assert cut != full


class TestPowerCutoff:
    def test_exact_equals_literal_oracle(self):
        n, h = 20, 2
        g = random_rational_table(7, seed=15)
        cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.power(0.5))
        got = selberg_integral_direct(cfg, exact=True)
        w = FejerWindow(h)
        want = Fraction(0)
        for x in range(n + 1, 2 * n + 1):
            qx = math.isqrt(x + h)
            short = Fraction(0)
            for m in range(x - h, x + h + 1):
                fm = sum(g.get(d) for d in divisors(m) if d <= qx)
                short += (1 - Fraction(abs(m - x), h)) * fm
            mv = h * sum(Fraction(g.get(d)) / d for d in range(1, qx + 1))
            want += (short - mv) ** 2
        assert got == want
        assert math.isclose(selberg_integral_direct(cfg), float(got), rel_tol=1e-10)

    def test_theta_one_matches_fixed_full_support(self):
        # Q(x + h) = x + h covers every q the mean value can see
        g = random_rational_table(5, seed=3)
        pw = selberg_integral_direct(
            IntegralConfig(n=12, h=2, g=g, cutoff=SupportCutoff.power(1.0)), exact=True
        )
        fx = selberg_integral_direct(
            IntegralConfig(n=12, h=2, g=g, cutoff=SupportCutoff.fixed(5)), exact=True
        )
        assert pw == fx


class TestExpSum:
    def test_half_n2(self):
        assert abs(exp_sum_closed_form(Fraction(1, 2), 2)) < 1e-15

    def test_integer_alpha(self):
        assert exp_sum_closed_form(5, 40) == complex(40)
        assert exp_sum_closed_form(Fraction(14, 7), 9) == complex(9)
        assert exp_sum_closed_form(3.0, 11) == complex(11)

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(120):
            n = rng.randint(1, 400)
            if rng.random() < 0.5:
                alpha = Fraction(rng.randint(1, 50), rng.randint(2, 50))
            else:
                alpha = rng.uniform(0, 3)
            got = exp_sum_closed_form(alpha, n)
            af = float(alpha)
            want = sum(
                complex(math.cos(2 * math.pi * af * x), math.sin(2 * math.pi * af * x))
                for x in range(n + 1, 2 * n + 1)
            )
            assert abs(got - want) <= 1e-7 * (1 + abs(want))

    def test_sharp_bound(self):
        rng = random.Random(2)
        for _ in range(300):
            alpha = rng.random()
            n = rng.randint(1, 5000)
            dist = min(alpha % 1, 1 - alpha % 1)
            assert abs(exp_sum_closed_form(alpha, n)) <= min(n, 1 / (2 * dist))


class TestDiagonal:
    def test_delta_vanishes(self):
        cfg = IntegralConfig(n=12, h=2, g=preset_table("delta1", 5), cutoff=SupportCutoff.fixed(5))
        assert diagonal_term(cfg) == 0.0

    def test_literal_triple_sum_oracle(self):
        g = preset_table("unit", 3)
        cfg = IntegralConfig(n=6, h=2, g=g, cutoff=SupportCutoff.fixed(3))
        got = diagonal_term(cfg)
        acc = 0.0
        for ell in (2, 3):
            r = float(ramanujan_coefficient(g, ell, 3))
            for j in range(1, ell // 2 + 1):
                if math.gcd(j, ell) == 1:
                    fv = fejer_kernel_value(Fraction(j, ell), FejerWindow(2))
                    acc += r * r * fv * fv * sum(
                        math.cos(2 * math.pi * x * j / ell) ** 2 for x in range(7, 13)
                    )
        assert math.isclose(got, acc, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(got, 1 / 3, rel_tol=1e-12)

    def test_nonnegative_random(self):
        rng = random.Random(5)
        for _ in range(10):
            q = rng.randint(1, 12)
            cfg = IntegralConfig(
                n=rng.randint(16, 64), h=2,
                g=random_rational_table(q, seed=rng.randint(0, 99)),
                cutoff=SupportCutoff.fixed(q),
            )
            assert diagonal_term(cfg) >= 0.0

    def test_power_cutoff_rejected(self):
        cfg = IntegralConfig(n=16, h=2, g=preset_table("unit", 4), cutoff=SupportCutoff.power(0.5))
        with pytest.raises(ValueError):
            diagonal_term(cfg)


class TestDecomposition:
    def test_delta_all_zero(self):
        cfg = IntegralConfig(n=16, h=2, g=preset_table("delta1", 4), cutoff=SupportCutoff.fixed(4))
        rep = selberg_integral_decomposed(cfg)
        assert rep.total == rep.direct == rep.diagonal == 0.0
        assert rep.abs_gap == 0.0

    def test_mobius_reconstruction(self):
        cfg = IntegralConfig(n=30, h=2, g=preset_table("mobius", 5), cutoff=SupportCutoff.fixed(5))
        rep = selberg_integral_decomposed(cfg)
        assert rep.abs_gap <= 1e-8 * (1 + rep.direct)
        assert math.isclose(rep.total, rep.diagonal + rep.near_delta + rep.near_sigma + rep.far_delta + rep.far_sigma)

    def test_taylor_positive_regime(self):
        # A = 8N keeps every nearby cosine sum positive
        for n, q in ((16, 12), (17, 11)):
            cfg = IntegralConfig(
                n=n, h=2, g=preset_table("mobius-squared", q),
                cutoff=SupportCutoff.fixed(q), a=8.0 * n,
            )
            rep = selberg_integral_decomposed(cfg)
            assert rep.diagonal + rep.near_delta + rep.near_sigma >= 0.0

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(integral_mod, "PAIR_BUDGET", 3)
        cfg = IntegralConfig(n=30, h=2, g=preset_table("unit", 7), cutoff=SupportCutoff.fixed(7))
        with pytest.raises(ResourceBudgetError, match=r"\d+ oriented fraction pairs"):
            selberg_integral_decomposed(cfg)
        rep = selberg_integral_decomposed(cfg, force=True)
        assert rep.abs_gap <= 1e-8 * (1 + rep.direct)

    def test_power_cutoff_rejected(self):
        cfg = IntegralConfig(n=16, h=2, g=preset_table("unit", 4), cutoff=SupportCutoff.power(0.5))
        with pytest.raises(ValueError):
            selberg_integral_decomposed(cfg)

    def test_int64_guard_before_any_work(self, monkeypatch):
        # 2 Q^2 (3N + 1) >= 2^63: refused before the sweep (O(N)) or any enumeration
        forbid_work(monkeypatch)
        cfg = IntegralConfig(n=10 ** 18, h=2, g=preset_table("unit", 2), cutoff=SupportCutoff.fixed(2))
        for call in (
            lambda: selberg_integral_decomposed(cfg),
            lambda: selberg_integral_decomposed(cfg, force=True),
            lambda: diagonal_term(cfg),
        ):
            with pytest.raises(ResourceBudgetError, match="int64"):
                call()

    def test_pair_budget_before_any_work(self, monkeypatch):
        forbid_work(monkeypatch)
        cfg = IntegralConfig(n=10 ** 6, h=2, g=preset_table("unit", 2000), cutoff=SupportCutoff.fixed(2000))
        with pytest.raises(ResourceBudgetError, match=r"\d+ oriented fraction pairs"):
            selberg_integral_decomposed(cfg)

    def test_pair_counts_of_the_decompose_config(self):
        g = preset_table("mobius", 48)
        cfg = IntegralConfig(n=5000, h=16, g=g, cutoff=SupportCutoff.fixed(48))
        rep = selberg_integral_decomposed(cfg)
        seq = farey_enumerate(48)
        zero = sum(
            1 for fr in seq
            if ramanujan_coefficient(g, fr.den, 48) == 0 or fr.num * 16 % fr.den == 0
        )
        assert rep.pairs == {
            "fractions": 356,
            "near_difference": 0,
            "far_difference": 63190,
            "near_wrapped_sum": 0,
            "far_wrapped_sum": 63190,
            "zero_weight_fractions": zero,
        }
        assert all(type(v) is int for v in rep.pairs.values())
        assert rep.abs_gap <= 1e-6 * (1 + rep.direct)


def reference_parts(cfg):
    """Pure-Python oracle: spaced_pair_partition + exp_sum_closed_form, one fsum per part.

    Returns (diagonal, near_delta, near_sigma, far_delta, far_sigma, pair counts).
    """
    q, n, h = cfg.cutoff.q, cfg.n, cfg.h
    seq = farey_enumerate(q)
    weights = [
        float(ramanujan_coefficient(cfg.g, fr.den, q)) * fejer_kernel_value(fr.value, FejerWindow(h))
        for fr in seq
    ]
    diag = math.fsum(
        w * w * (0.5 * n + 0.5 * exp_sum_closed_form(2 * fr.value, n).real)
        for fr, w in zip(seq, weights)
        if w != 0.0
    )

    def pair_sum(pairs, key_fn):
        return math.fsum(
            weights[i] * weights[k] * exp_sum_closed_form(key_fn(seq[i], seq[k]), n).real
            for i, k in pairs
            if weights[i] != 0.0 and weights[k] != 0.0
        )

    part_d = spaced_pair_partition(seq, seq, cfg.a_value, "difference")
    part_s = spaced_pair_partition(seq, seq, cfg.a_value, "wrapped_sum")
    counts = {
        "fractions": len(seq),
        "near_difference": len(part_d.near),
        "far_difference": len(part_d.far),
        "near_wrapped_sum": len(part_s.near),
        "far_wrapped_sum": len(part_s.far),
        "zero_weight_fractions": weights.count(0.0),
    }
    return (
        diag,
        pair_sum(part_d.near, delta_key),
        pair_sum(part_s.near, sigma_key),
        pair_sum(part_d.far, delta_key),
        pair_sum(part_s.far, sigma_key),
        counts,
    )


def assert_matches_reference(cfg):
    rep = selberg_integral_decomposed(cfg)
    *want, counts = reference_parts(cfg)
    got = (rep.diagonal, rep.near_delta, rep.near_sigma, rep.far_delta, rep.far_sigma)
    for g_val, w_val in zip(got, want):
        assert math.isclose(g_val, w_val, rel_tol=1e-12, abs_tol=0.0), (cfg, got, want)
    assert rep.pairs == counts
    return rep


class TestPairKernelOracle:
    def test_configs_with_near_pairs(self):
        near = {"near_difference": 0, "near_wrapped_sum": 0}
        for n in (8, 12, 17, 24, 36):
            for q in (10, 11, 12):
                for h in (2, 4, 8):
                    if (h > 2 and 4 * h > n) or q > n + h:
                        continue
                    for g in (random_rational_table(q, seed=n * 100 + q * 10 + h), preset_table("mobius", q)):
                        for a in (float(n), 8.0 * n, None):
                            cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q), a=a)
                            rep = assert_matches_reference(cfg)
                            for key in near:
                                near[key] += rep.pairs[key]
        assert near["near_difference"] > 0 and near["near_wrapped_sum"] > 0

    def test_row_blocks_do_not_change_the_sums(self, monkeypatch):
        cfg = IntegralConfig(
            n=36, h=2, g=random_rational_table(12, seed=0), cutoff=SupportCutoff.fixed(12)
        )
        whole = selberg_integral_decomposed(cfg)
        monkeypatch.setattr(integral_mod, "PAIR_BLOCK", 5)  # one row per block
        blocked = selberg_integral_decomposed(cfg)
        assert blocked == whole
        assert blocked.pairs == whole.pairs

    def test_exact_tie_is_near(self):
        # 1/4 - 1/5 = 1/20 = 1/A exactly
        cfg = IntegralConfig(n=16, h=2, g=random_rational_table(5, seed=3), cutoff=SupportCutoff.fixed(5), a=20)
        rep = assert_matches_reference(cfg)
        assert rep.pairs["near_difference"] == 1
        assert rep.near_delta != 0.0

    def test_float_ties_are_settled_exactly(self):
        # float(1/A) == float(1/7) in both cases; exactly 1/A < 1/7 for the first A, = for the second,
        # and float(1/A) == float(1/13) with 1/A > 1/13 exactly for the third
        for a, q in ((math.nextafter(7.0, 8.0), 7), (7.0, 7), (math.nextafter(13.0, 12.0), 13)):
            cfg = IntegralConfig(n=60, h=2, g=random_rational_table(q, seed=q), cutoff=SupportCutoff.fixed(q), a=a)
            assert float(1 / Fraction(a)) in (1 / 7, 1 / 13)
            assert_matches_reference(cfg)


class TestFarPartReport:
    def test_delta_everything_zero(self):
        cfg = IntegralConfig(n=16, h=2, g=preset_table("delta1", 4), cutoff=SupportCutoff.fixed(4))
        rep = far_part_bound_check(cfg)
        assert rep.far_abs == 0.0

    def test_far_empty_when_threshold_covers_all_keys(self):
        # 1/A = 1/2 is at least every pair key, so nothing is well-spaced
        cfg = IntegralConfig(n=20, h=2, g=preset_table("unit", 8), cutoff=SupportCutoff.fixed(8), a=2.0)
        rep = far_part_bound_check(cfg)
        assert rep.far_delta == rep.far_sigma == rep.far_abs == 0.0

    def test_fields_are_consistent(self):
        cfg = IntegralConfig(n=33, h=2, g=preset_table("mobius", 9), cutoff=SupportCutoff.fixed(9), a=33.0)
        rep = far_part_bound_check(cfg)
        assert rep.far_abs == abs(rep.far_delta) + abs(rep.far_sigma)
        assert rep.ah == 33.0 * 2
        assert math.isclose(rep.ratio_to_ah, rep.far_abs / rep.ah)
        assert rep.lemma_majorant >= 0.0

    def test_majorant_fields_equal_per_ell_formulas(self):
        """The table-built fields against per-ell R_l and the scalar kernel reference."""
        for n, h, q, g in (
            (60, 4, 12, random_rational_table(12, seed=1)),
            (200, 8, 30, random_rational_table(30, seed=2)),
            (97, 2, 7, preset_table("mobius", 7)),
        ):
            cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.fixed(q))
            rep = far_part_bound_check(cfg)
            w = FejerWindow(h)
            sq = math.fsum(
                (fejer_kernel_value(Fraction(j, ell), w) / ell) ** 2
                for ell in range(2, q + 1)
                for j in range(1, ell)
                if math.gcd(j, ell) == 1
            )
            scale = max(abs(float(ramanujan_coefficient(g, ell, q))) * ell for ell in range(2, q + 1))
            k = len(farey_enumerate(q))
            harmonic = 2.0 * math.fsum(1.0 / i for i in range(1, k + 1))
            a = cfg.a_value
            assert math.isclose(rep.coeff_square_sum, sq, rel_tol=1e-12)
            assert math.isclose(rep.ramanujan_scale, scale * scale, rel_tol=1e-12)
            assert math.isclose(rep.harmonic_factor, harmonic, rel_tol=1e-12)
            assert math.isclose(rep.lemma_majorant, scale * scale * a * sq * harmonic, rel_tol=1e-12)


class TestMajorantCompare:
    def test_equal_functions_ratio_below_one(self):
        g = preset_table("mobius-squared", 8)
        cfg = IntegralConfig(n=32, h=2, g=g, cutoff=SupportCutoff.fixed(8), g_name="mobius-squared")
        rep = majorant_compare(cfg, g, "mobius-squared")
        assert rep.j_f == rep.j_F
        assert rep.ratio <= 1.0
        assert rep.n_h == 64.0

    def test_violation_names_first_offender(self):
        g = preset_table("unit", 6).scale(2)
        bigg = preset_table("unit", 6)
        cfg = IntegralConfig(n=24, h=2, g=g, cutoff=SupportCutoff.fixed(6))
        with pytest.raises(ValueError, match="n=1"):
            majorant_compare(cfg, bigg)

    def test_zero_support_points_are_ignored(self):
        # |g| > G where G = 0 is outside the supports intersection
        g = preset_table("mobius", 8)  # g(2) = -1
        bigg = preset_table("delta1", 8)  # G(2) = 0
        cfg = IntegralConfig(n=32, h=2, g=g, cutoff=SupportCutoff.fixed(8), g_name="mobius")
        rep = majorant_compare(cfg, bigg, "delta1")
        assert rep.ratio >= 0.0

    def test_report_only_unit_majorant(self):
        # cautionary case: G = 1 gives a trivial comparison integral; report, no assertion
        g = preset_table("random:42", 8)
        cfg = IntegralConfig(n=32, h=2, g=g, cutoff=SupportCutoff.fixed(8), g_name="random:42")
        rep = majorant_compare(cfg, preset_table("unit", 8), "unit")
        assert rep.meta["G"] == "unit"
