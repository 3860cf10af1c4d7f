import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msi.arith import (
    PRESET_NAMES,
    FunctionTable,
    SupportCutoff,
    dirichlet_convolve_unit,
    divisors,
    essential_bound_probe,
    mobius_invert,
    power_floor,
    preset_table,
    random_rational_table,
    read_csv,
    sieve_divisor_count,
    sieve_mobius,
    write_csv,
)


def brute_mobius(n: int) -> int:
    """Factorization oracle for mu."""
    val, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            val = -val
        p += 1
    if m > 1:
        val = -val
    return val


class TestSieveMobius:
    def test_max_n_one(self):
        assert sieve_mobius(1).values == (1,)

    def test_against_factorization_oracle(self):
        mu = sieve_mobius(300)
        for n in range(1, 301):
            assert mu[n] == brute_mobius(n), n

    def test_mertens_sum(self):
        mu = sieve_mobius(100)
        assert sum(mu.values) == sum(brute_mobius(n) for n in range(1, 101)) == 1

    def test_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            sieve_mobius(0)


class TestSieveDivisorCount:
    def test_small_values(self):
        d = sieve_divisor_count(6)
        assert d[1] == 1
        assert d[6] == 4

    def test_matches_unit_convolution(self):
        d = sieve_divisor_count(200)
        assert d == dirichlet_convolve_unit(preset_table("unit", 200), 200)

    def test_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            sieve_divisor_count(0)


class TestConvolution:
    def test_delta_gives_constant_one(self):
        f = dirichlet_convolve_unit(preset_table("delta1", 40), 40)
        assert all(v == 1 for v in f.values)

    def test_mobius_gives_delta(self):
        f = dirichlet_convolve_unit(sieve_mobius(120), 120)
        assert f == preset_table("delta1", 120)

    def test_zero_extension_beyond_table(self):
        g = preset_table("unit", 4)
        f = dirichlet_convolve_unit(g, 12)
        # f(n) counts divisors of n that are <= 4
        assert f[12] == 4  # 1, 2, 3, 4
        assert f[7] == 1


class TestMobiusInvert:
    def test_constant_one_gives_delta(self):
        f = FunctionTable([1] * 60)
        assert mobius_invert(f) == preset_table("delta1", 60)

    def test_divisor_count_inverts_to_unit(self):
        d = sieve_divisor_count(200)
        g = mobius_invert(d)
        # oracle: g(n) = sum_{q|n} mu(q) d(n/q) should be 1 for all n
        mu = sieve_mobius(200)
        for n in range(1, 201):
            assert g[n] == sum(mu[q] * d[n // q] for q in divisors(n)) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_random_rationals(self, seed):
        g = random_rational_table(50, seed=seed)
        assert mobius_invert(dirichlet_convolve_unit(g, 50)) == g


class TestCutoffs:
    def test_power_limit_nondecreasing(self):
        cut = SupportCutoff.power(0.5)
        vals = [cut.limit(m) for m in range(1, 3000)]
        assert vals == sorted(vals)
        assert all(1 <= v <= m for m, v in enumerate(vals, start=1))

    def test_power_floor_repairs_float_pow(self):
        assert power_floor(1024, 0.3) == 8  # plain int(1024**0.3) gives 7
        assert power_floor(100, 0.5) == 10

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0])
    def test_parse_power_inverts_label(self, theta):
        cutoff = SupportCutoff.power(theta)
        assert SupportCutoff.parse(cutoff.label()) == cutoff

    def test_parse_fixed_takes_q(self):
        assert SupportCutoff.parse(None, 7) == SupportCutoff.fixed(7)
        assert SupportCutoff.parse("fixed", 7) == SupportCutoff.fixed(7)

    @pytest.mark.parametrize(
        "spec, q, message",
        [("bogus", 5, "bad cutoff"), ("bogus", None, "bad cutoff"), (None, None, "--q"),
         ("fixed", None, "--q"), ("power:0.5", 5, "--q"), ("fixed:6", 6, "bad cutoff"),
         ("fixed:6", None, "bad cutoff"), ("power:x", None, "float"), ("power:1.5", None, "theta")],
    )
    def test_parse_refuses(self, spec, q, message):
        with pytest.raises(ValueError, match=message):
            SupportCutoff.parse(spec, q)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SupportCutoff.fixed(0)
        with pytest.raises(ValueError):
            SupportCutoff.power(1.5)


class TestFunctionTable:
    def test_index_errors(self):
        t = FunctionTable([1, 2, 3])
        with pytest.raises(IndexError):
            t[0]
        with pytest.raises(IndexError):
            t[4]
        assert t.get(4) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FunctionTable([])


class TestPresets:
    def test_random_is_seed_deterministic(self):
        assert preset_table("random:9", 30) == preset_table("random:9", 30)
        assert preset_table("random:9", 30) != preset_table("random:10", 30)

    def test_random_values_in_unit_interval(self):
        g = preset_table("random:5", 100)
        assert all(-1 <= v <= 1 for v in g.values)

    def test_mobius_squared(self):
        g = preset_table("mobius-squared", 50)
        mu = sieve_mobius(50)
        assert all(g[n] == mu[n] * mu[n] for n in range(1, 51))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_table("nope", 10)

    @pytest.mark.parametrize("spec", [*PRESET_NAMES, "random:3"])
    @pytest.mark.parametrize("max_n", [0, -1])
    def test_empty_table_refused(self, spec, max_n):
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            preset_table(spec, max_n)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(10, 80))
def test_majorant_transfer(seed, max_n):
    """|g| <= G pointwise forces |g*1| <= G*1 pointwise, exactly."""
    g = random_rational_table(max_n, seed=seed)
    bigg = FunctionTable([abs(v) for v in g.values])
    f = dirichlet_convolve_unit(g, max_n)
    bigf = dirichlet_convolve_unit(bigg, max_n)
    assert all(abs(a) <= b for a, b in zip(f.values, bigf.values))


def test_csv_round_trip():
    g = random_rational_table(25, seed=3)
    buf = io.StringIO()
    write_csv(g, buf)
    buf.seek(0)
    assert read_csv(buf) == g


def test_csv_header():
    buf = io.StringIO()
    write_csv(FunctionTable([1, Fraction(-1, 2)]), buf)
    assert buf.getvalue() == "n,value\n1,1\n2,-1/2\n"


def test_essential_bound_probe_reports_max():
    f = FunctionTable([1, 1, 8])
    assert essential_bound_probe(f, eps=0.0) == 8.0
