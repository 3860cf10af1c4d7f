import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msi.farey import (
    FareyFraction,
    delta_key,
    farey_columns,
    farey_count,
    farey_enumerate,
    farey_full,
    min_gap,
    sigma_key,
    spaced_pair_partition,
)


def brute_half_fractions(q):
    out = {
        Fraction(j, l)
        for l in range(2, q + 1)
        for j in range(1, l // 2 + 1)
        if gcd(j, l) == 1
    }
    return sorted(out)


def pairs_of(columns):
    num, den = columns
    return list(zip(num.tolist(), den.tolist()))


class TestEnumerate:
    def test_q2(self):
        seq = farey_enumerate(2)
        assert [(f.num, f.den) for f in seq] == [(1, 2)]

    def test_q5(self):
        seq = farey_enumerate(5)
        assert [(f.num, f.den) for f in seq] == [(1, 5), (1, 4), (1, 3), (2, 5), (1, 2)]

    def test_count_and_content_match_brute_force(self):
        for q in (7, 30, 100):
            seq = farey_enumerate(q)
            assert [f.value for f in seq] == brute_half_fractions(q)

    def test_all_reduced_in_range(self):
        for f in farey_enumerate(37):
            assert gcd(f.num, f.den) == 1
            assert 1 < f.den <= 37
            assert 0 < f.value <= Fraction(1, 2)

    def test_small_q_rejected(self):
        with pytest.raises(ValueError):
            farey_enumerate(1)
        with pytest.raises(ValueError):
            farey_columns(1)


class TestFullSequence:
    def test_unimodular_consecutive(self):
        for q in (1, 2, 13, 60):
            seq = pairs_of(farey_full(q))
            assert seq[0] == (0, 1) and seq[-1] == (1, 1)
            for (a, b), (c, d) in zip(seq, seq[1:]):
                assert b * c - a * d == 1

    def test_gap_law(self):
        seq = pairs_of(farey_full(30))
        for (a, b), (c, d) in zip(seq, seq[1:]):
            assert Fraction(c, d) - Fraction(a, b) == Fraction(1, b * d)


class TestMinGap:
    def test_q5(self):
        assert min_gap(farey_enumerate(5)) == Fraction(1, 20)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            min_gap(farey_enumerate(2))

    def test_at_least_inverse_q_squared(self):
        for q in range(3, 80):
            assert min_gap(farey_enumerate(q)) >= Fraction(1, q * q)


class TestKeys:
    def test_delta(self):
        assert delta_key(FareyFraction(1, 2), FareyFraction(1, 5)) == Fraction(3, 10)

    def test_sigma_wraps(self):
        half = FareyFraction(1, 2)
        assert sigma_key(half, half) == 0
        assert sigma_key(FareyFraction(2, 5), FareyFraction(1, 2)) == Fraction(1, 10)
        assert sigma_key(FareyFraction(1, 5), FareyFraction(1, 4)) == Fraction(9, 20)


class TestPartition:
    def test_small_a_puts_every_pair_near(self):
        # threshold 1/A at or above the largest possible key
        seq = farey_enumerate(8)
        for mode in ("difference", "wrapped_sum"):
            part = spaced_pair_partition(seq, 2, mode)
            assert part.far == ()
            assert len(part.near) == len(seq) * (len(seq) - 1) // 2

    def test_q5_a10_examples(self):
        seq = farey_enumerate(5)
        idx = {(f.num, f.den): i for i, f in enumerate(seq)}
        part = spaced_pair_partition(seq, 10, "difference")
        assert (idx[(1, 4)], idx[(1, 5)]) in part.near  # delta = 1/20 <= 1/10
        assert (idx[(1, 2)], idx[(1, 5)]) in part.far  # delta = 3/10 > 1/10

    def test_sigma_zero_key_is_near_for_any_finite_a(self):
        half = FareyFraction(1, 2)
        assert sigma_key(half, half) == 0
        for a in (1, 10, 1e12):
            assert sigma_key(half, half) <= 1 / Fraction(a)

    def test_tie_goes_near(self):
        seq = farey_enumerate(5)
        part = spaced_pair_partition(seq, 20, "difference")  # threshold 1/20
        idx = {(f.num, f.den): i for i, f in enumerate(seq)}
        assert (idx[(1, 4)], idx[(1, 5)]) in part.near  # delta = 1/20 exactly

    def test_oriented_pairs_have_positive_delta(self):
        seq = farey_enumerate(9)
        part = spaced_pair_partition(seq, 7, "difference")
        for i, k in part.near + part.far:
            assert seq[i].value > seq[k].value

    def test_bad_mode_and_bad_a(self):
        seq = farey_enumerate(3)
        with pytest.raises(ValueError):
            spaced_pair_partition(seq, 2, "nope")
        with pytest.raises(ValueError):
            spaced_pair_partition(seq, 0, "difference")

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan, 0, -1])
    def test_a_must_be_finite_and_positive(self, a):
        with pytest.raises(ValueError, match="finite and above 0"):
            spaced_pair_partition(farey_enumerate(5), a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 30), st.floats(min_value=0.5, max_value=1e6))
    def test_exhaustive_disjoint_cover(self, q, a):
        seq = farey_enumerate(q)
        m = len(seq)
        expected = {(i, k) for i in range(m) for k in range(i)}
        for mode in ("difference", "wrapped_sum"):
            part = spaced_pair_partition(seq, a, mode)
            near, far = set(part.near), set(part.far)
            assert near | far == expected
            assert not near & far

    def test_threshold_is_exact(self):
        seq = farey_enumerate(6)
        part = spaced_pair_partition(seq, 6, "difference")
        thr = Fraction(1, 6)
        for i, k in part.near:
            assert delta_key(seq[i], seq[k]) <= thr
        for i, k in part.far:
            assert delta_key(seq[i], seq[k]) > thr


def test_farey_count_matches_enumeration():
    for q in range(2, 90):
        assert farey_count(q) == len(farey_enumerate(q))
    with pytest.raises(ValueError):
        farey_count(1)


def test_sorted_index_spacing_literal():
    for q in (6, 11, 20):
        seq = farey_enumerate(q)
        gap = min_gap(seq)
        vals = [f.value for f in seq]
        for n in range(len(vals)):
            for m in range(n):
                assert vals[n] - vals[m] >= (n - m) * gap


class TestColumns:
    def test_columns_of_sequence_and_full(self):
        num, den = farey_columns(7)
        assert num.dtype == den.dtype == np.int64
        assert pairs_of((num, den)) == [(f.num, f.den) for f in farey_enumerate(7)]
        for q in (2, 5, 13):
            num, den = farey_full(q)
            assert num.dtype == den.dtype == np.int64
            half = [(a, b) for a, b in pairs_of((num, den)) if 0 < 2 * a <= b]
            assert pairs_of(farey_columns(q)) == half

    def test_columns_match_brute_force_and_enumerate(self):
        for q in range(2, 61):
            pairs = pairs_of(farey_columns(q))
            assert pairs == [(f.numerator, f.denominator) for f in brute_half_fractions(q)]
            assert farey_enumerate(q) == tuple(pairs)

    def test_fractions_are_immutable_hashable_tuples(self):
        f = FareyFraction(2, 5)
        assert f == (2, 5) and hash(f) == hash((2, 5))
        assert f.value == Fraction(2, 5)
        with pytest.raises(AttributeError):
            f.num = 3
