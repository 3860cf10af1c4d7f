import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msi.arith import FunctionTable, preset_table, random_rational_table
from msi.short_sums import FejerWindow, chi_tilde_direct
from msi.spectral import (
    _coefficients,
    _ramanujan_ratios,
    _sin_pi_ratio,
    chi_tilde_expansion,
    coefficient_square_sum,
    coefficient_square_sums,
    exp_sum_closed_form,
    fejer_kernel_value,
    ramanujan_coefficient,
)

W2 = FejerWindow(2)


class TestKernelValue:
    def test_third(self):
        # both sines squared are 3/4
        assert math.isclose(fejer_kernel_value(Fraction(1, 3), W2), 1.0, rel_tol=1e-15)

    def test_half_vanishes_for_even_h(self):
        for h in (2, 4, 12):
            assert fejer_kernel_value(Fraction(1, 2), FejerWindow(h)) == 0.0

    def test_quarter(self):
        assert math.isclose(fejer_kernel_value(Fraction(1, 4), W2), 2.0, rel_tol=1e-15)
        assert math.isclose(fejer_kernel_value(0.25, W2), 2.0, rel_tol=1e-15)

    def test_integer_beta_rejected(self):
        with pytest.raises(ValueError):
            fejer_kernel_value(Fraction(2), W2)
        with pytest.raises(ValueError):
            fejer_kernel_value(1.0, W2)

    def test_nonnegative_on_random_betas(self):
        import random

        rng = random.Random(0)
        w = FejerWindow(8)
        for _ in range(500):
            assert fejer_kernel_value(rng.uniform(1e-6, 1 - 1e-6), w) >= 0.0


class TestArrayKernel:
    """The array path against the scalar Fraction reference."""

    def test_matches_scalar_reference(self):
        pairs = [(j, q) for q in range(2, 201) for j in range(1, q) if math.gcd(j, q) == 1]
        j, q = np.array(pairs).T
        for h in (2, 8, 34, 64):
            got = _coefficients(j, q, h)
            want = np.array(
                [fejer_kernel_value(Fraction(a, b), FejerWindow(h)) / b for a, b in pairs]
            )
            vanish = (h * j) % q == 0
            assert np.all(got[vanish] == 0.0) and np.all(want[vanish] == 0.0)
            assert np.all(got[~vanish] > 0.0)
            rel = np.abs(got[~vanish] - want[~vanish]) / want[~vanish]
            assert rel.max() <= 1e-14

    def test_angle_bits_do_not_depend_on_the_representative(self):
        rng = np.random.default_rng(3)
        t = rng.integers(-10**6, 10**6, 5000)
        r = rng.integers(1, 10**4, 5000)
        base = _sin_pi_ratio(t, r)
        for d in (2, 3, 7, 1000):
            assert np.array_equal(_sin_pi_ratio(d * t, d * r), base)
        assert np.all(base[t % r == 0] == 0.0)

    def test_angle_helper_matches_math(self):
        t = np.arange(-40, 41)
        for r in (1, 2, 3, 7, 12):
            # numpy's unreduced angles carry up to ~1e-14 of their own error
            want = np.sin(np.pi * t / r)
            assert np.allclose(_sin_pi_ratio(t, r), want, rtol=0, atol=1e-13)
            cos = _sin_pi_ratio(2 * t + r, 2 * r)
            assert np.allclose(cos, np.cos(np.pi * t / r), rtol=0, atol=1e-13)

    def test_float_input_is_its_exact_fraction(self):
        rng = random.Random(11)
        for _ in range(300):
            beta = rng.uniform(-3, 3)
            h = rng.choice((2, 6, 64))
            assert fejer_kernel_value(beta, FejerWindow(h)) == fejer_kernel_value(
                Fraction(beta), FejerWindow(h)
            )
            n = rng.randint(1, 10**6)
            assert exp_sum_closed_form(beta, n) == exp_sum_closed_form(Fraction(beta), n)

    def test_square_sum_table_matches_operation(self):
        hs = (2, 4, 10, 36)
        table = coefficient_square_sums(90, hs)
        assert np.all(table[:, :2] == 0.0)
        for i, h in enumerate(hs):
            for q in range(2, 91):
                op = coefficient_square_sum(q, FejerWindow(h))
                assert abs(table[i, q] - op) <= 1e-14 * op


class TestCoefficients:
    """c_{j,q} = F_h(j/q)/q from the array kernel, one int64 fraction at a time."""

    def test_c13(self):
        assert math.isclose(_coefficients(1, 3, 2), 1 / 3, rel_tol=1e-15)

    def test_scaling_c26(self):
        assert _coefficients(2, 6, 2) == _coefficients(1, 3, 2) / 2

    def test_c12_zero(self):
        for h in (2, 6, 40):
            assert _coefficients(1, 2, h) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 100), st.integers(2, 5), st.sampled_from([2, 4, 16]))
    def test_scaling_law(self, q, d, h):
        j = np.array([j for j in range(1, q // 2 + 1) if math.gcd(j, q) == 1])
        base = _coefficients(j, q, h)
        scaled = _coefficients(d * j, d * q, h)
        zero = base == 0.0
        assert np.all(scaled[zero] == 0.0)
        assert np.all(np.abs(scaled[~zero] - base[~zero] / d) <= 1e-12 * base[~zero] / d)


class TestChiExpansion:
    def test_q1_empty(self):
        assert chi_tilde_expansion(1, 17, W2) == 0.0

    def test_q3_x3(self):
        got = chi_tilde_expansion(3, 3, W2)
        assert math.isclose(got, 1 / 3, rel_tol=1e-12)
        assert math.isclose(got, float(chi_tilde_direct(3, 3, W2)), rel_tol=1e-12)

    def test_q6_full_period_matches_direct(self):
        for x in range(7, 13):
            e = chi_tilde_expansion(6, x, W2)
            d = float(chi_tilde_direct(6, x, W2))
            assert abs(e - d) <= 1e-12 * (1 + abs(d))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120), st.sampled_from([2, 6, 18]), st.integers(1, 200))
    def test_matches_direct_beyond_h(self, q, h, xoff):
        w = FejerWindow(h)
        x = h + xoff
        e = chi_tilde_expansion(q, x, w)
        d = float(chi_tilde_direct(q, x, w))
        assert abs(e - d) <= 1e-9 * (1 + h)


    def test_array_x_equals_scalar_calls(self):
        rng = random.Random(17)
        for q in (1, 2, 7, 12, 60, 97):
            for h in (2, 10):
                w = FejerWindow(h)
                xs = [rng.randint(-10**12, 10**12) for _ in range(20)] + list(range(2 * q))
                got = chi_tilde_expansion(q, np.array(xs), w)
                assert got.shape == (len(xs),)
                assert [float(v) for v in got] == [chi_tilde_expansion(q, x, w) for x in xs]


class TestCoefficientSquareSum:
    def test_q2_vanishes(self):
        for h in (2, 10):
            assert coefficient_square_sum(2, FejerWindow(h)) == 0.0

    def test_q3_h2(self):
        assert math.isclose(coefficient_square_sum(3, W2), 2 / 9, rel_tol=1e-14)

    def test_reduced_at_most_full(self):
        for q in (6, 12, 30):
            w = FejerWindow(4)
            assert coefficient_square_sum(q, w, reduced_only=True) <= coefficient_square_sum(q, w) + 1e-18

    def test_parseval_small(self):
        # period mean of chi^2 equals a quarter of the full square sum
        for q in (3, 7, 12, 25):
            for h in (2, 6):
                w = FejerWindow(h)
                shift = q * ((h // q) + 1)
                lhs = sum(float(chi_tilde_direct(q, x + shift, w)) ** 2 for x in range(1, q + 1)) / q
                rhs = coefficient_square_sum(q, w) / 4
                assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coefficient_square_sum(1, W2)


class TestRamanujan:
    def test_delta(self):
        g = preset_table("delta1", 30)
        assert ramanujan_coefficient(g, 1, 30) == 1
        for ell in range(2, 31):
            assert ramanujan_coefficient(g, ell, 30) == 0

    def test_unit_two_term(self):
        g = preset_table("unit", 4)
        assert ramanujan_coefficient(g, 2, 4) == Fraction(3, 4)

    def test_equals_multiples_formula(self):
        g = random_rational_table(24, seed=8)
        for ell in (1, 2, 3, 8):
            direct = sum(Fraction(g[m]) / m for m in range(ell, 25, ell))
            assert ramanujan_coefficient(g, ell, 24) == direct

    def test_zero_beyond_support_bound(self):
        g = random_rational_table(10, seed=8)
        assert ramanujan_coefficient(g, 11, 10) == 0

    def test_table(self):
        g = random_rational_table(12, seed=6)
        ratios = _ramanujan_ratios(g, 12)
        assert len(ratios) == 12
        for ell, (a, b) in enumerate(ratios, start=1):
            assert Fraction(a, b) == ramanujan_coefficient(g, ell, 12)

    @pytest.mark.parametrize("q_max", [12, 48, 97])
    def test_table_equals_per_ell_reference(self, q_max):
        rng = random.Random(q_max)
        mixed = FunctionTable(
            [Fraction(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(q_max)]
        )
        tables = [
            random_rational_table(q_max, seed=q_max),
            mixed,
            random_rational_table(q_max // 3, seed=1),  # shorter than Q
            preset_table("mobius", q_max),
            FunctionTable([0] * q_max),
        ]
        for g in tables:
            want = [ramanujan_coefficient(g, ell, q_max) for ell in range(1, q_max + 1)]
            assert [Fraction(a, b) for a, b in _ramanujan_ratios(g, q_max)] == want
            # the decomposition's float weights: unreduced int division, correctly rounded
            assert [a / b for a, b in _ramanujan_ratios(g, q_max)] == [float(v) for v in want]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 40))
    def test_triangle_inequality(self, seed, q_max):
        g = random_rational_table(q_max, seed=seed)
        bigg = FunctionTable([abs(v) for v in g.values])
        for ell in range(1, q_max + 1):
            assert abs(ramanujan_coefficient(g, ell, q_max)) <= ramanujan_coefficient(bigg, ell, q_max)
