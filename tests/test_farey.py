import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msi.farey import (
    _fractions,
    farey_columns,
    farey_count,
    farey_full,
    min_gap,
    pair_key,
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
        assert pairs_of(farey_columns(2)) == [(1, 2)]

    def test_q5(self):
        assert pairs_of(farey_columns(5)) == [(1, 5), (1, 4), (1, 3), (2, 5), (1, 2)]

    def test_count_and_content_match_brute_force(self):
        for q in (7, 30, 100):
            assert _fractions(*farey_columns(q)) == brute_half_fractions(q)

    def test_all_reduced_in_range(self):
        for j, ell in pairs_of(farey_columns(37)):
            assert gcd(j, ell) == 1
            assert 1 < ell <= 37
            assert 0 < Fraction(j, ell) <= Fraction(1, 2)

    def test_small_q_rejected(self):
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
        assert min_gap(*farey_columns(5)) == Fraction(1, 20)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            min_gap(*farey_columns(2))

    def test_at_least_inverse_q_squared(self):
        for q in range(3, 80):
            assert min_gap(*farey_columns(q)) >= Fraction(1, q * q)


class TestKeys:
    def test_delta(self):
        assert pair_key(Fraction(1, 2), Fraction(1, 5), "difference") == Fraction(3, 10)

    def test_sigma_wraps(self):
        half = Fraction(1, 2)
        assert pair_key(half, half, "wrapped_sum") == 0
        assert pair_key(Fraction(2, 5), Fraction(1, 2), "wrapped_sum") == Fraction(1, 10)
        assert pair_key(Fraction(1, 5), Fraction(1, 4), "wrapped_sum") == Fraction(9, 20)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pair_key(Fraction(1, 2), Fraction(1, 5), "nope")


class TestPartition:
    def test_small_a_puts_every_pair_near(self):
        # threshold 1/A at or above the largest possible key
        num, den = farey_columns(8)
        for mode in ("difference", "wrapped_sum"):
            part = spaced_pair_partition(num, den, 2, mode)
            assert part.far == ()
            assert len(part.near) == num.size * (num.size - 1) // 2

    def test_q5_a10_examples(self):
        columns = farey_columns(5)
        idx = {pair: i for i, pair in enumerate(pairs_of(columns))}
        part = spaced_pair_partition(*columns, 10, "difference")
        assert (idx[(1, 4)], idx[(1, 5)]) in part.near  # delta = 1/20 <= 1/10
        assert (idx[(1, 2)], idx[(1, 5)]) in part.far  # delta = 3/10 > 1/10

    def test_sigma_zero_key_is_near_for_any_finite_a(self):
        half = Fraction(1, 2)
        assert pair_key(half, half, "wrapped_sum") == 0
        for a in (1, 10, 1e12):
            assert pair_key(half, half, "wrapped_sum") <= 1 / Fraction(a)

    def test_tie_goes_near(self):
        columns = farey_columns(5)
        part = spaced_pair_partition(*columns, 20, "difference")  # threshold 1/20
        idx = {pair: i for i, pair in enumerate(pairs_of(columns))}
        assert (idx[(1, 4)], idx[(1, 5)]) in part.near  # delta = 1/20 exactly

    def test_oriented_pairs_have_positive_delta(self):
        columns = farey_columns(9)
        part = spaced_pair_partition(*columns, 7, "difference")
        fr = _fractions(*columns)
        for i, k in part.near + part.far:
            assert fr[i] > fr[k]

    def test_bad_mode_and_bad_a(self):
        columns = farey_columns(3)
        with pytest.raises(ValueError):
            spaced_pair_partition(*columns, 2, "nope")
        with pytest.raises(ValueError):
            spaced_pair_partition(*columns, 0, "difference")

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan, 0, -1])
    def test_a_must_be_finite_and_positive(self, a):
        with pytest.raises(ValueError, match="finite and above 0"):
            spaced_pair_partition(*farey_columns(5), a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 30), st.floats(min_value=0.5, max_value=1e6))
    def test_exhaustive_disjoint_cover(self, q, a):
        num, den = farey_columns(q)
        m = num.size
        expected = {(i, k) for i in range(m) for k in range(i)}
        for mode in ("difference", "wrapped_sum"):
            part = spaced_pair_partition(num, den, a, mode)
            near, far = set(part.near), set(part.far)
            assert near | far == expected
            assert not near & far

    def test_threshold_is_exact(self):
        columns = farey_columns(6)
        part = spaced_pair_partition(*columns, 6, "difference")
        fr = _fractions(*columns)
        thr = Fraction(1, 6)
        for i, k in part.near:
            assert pair_key(fr[i], fr[k], "difference") <= thr
        for i, k in part.far:
            assert pair_key(fr[i], fr[k], "difference") > thr


def test_farey_count_matches_enumeration():
    for q in range(2, 90):
        assert farey_count(q) == len(farey_columns(q)[0])
    with pytest.raises(ValueError):
        farey_count(1)


def test_sorted_index_spacing_literal():
    for q in (6, 11, 20):
        columns = farey_columns(q)
        gap = min_gap(*columns)
        vals = _fractions(*columns)
        for n in range(len(vals)):
            for m in range(n):
                assert vals[n] - vals[m] >= (n - m) * gap


class TestColumns:
    def test_columns_of_sequence_and_full(self):
        for q in (2, 5, 7, 13):
            assert all(col.dtype == np.int64 for col in farey_columns(q))
            num, den = farey_full(q)
            assert num.dtype == den.dtype == np.int64
            half = [(a, b) for a, b in pairs_of((num, den)) if 0 < 2 * a <= b]
            assert pairs_of(farey_columns(q)) == half

    def test_columns_match_brute_force_and_enumerate(self):
        # the ambient enumeration farey_full, cut to (0, 1/2], is the second reference
        for q in range(2, 61):
            pairs = pairs_of(farey_columns(q))
            assert pairs == [(f.numerator, f.denominator) for f in brute_half_fractions(q)]
            assert pairs == [(a, b) for a, b in pairs_of(farey_full(q)) if 0 < 2 * a <= b]
