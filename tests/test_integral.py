import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import msi.integral as integral_mod
from msi.arith import (
    FunctionTable,
    SupportCutoff,
    power_floor,
    preset_table,
    random_rational_table,
)
from msi.farey import _fractions, farey_columns, pair_key, spaced_pair_partition
from msi.integral import (
    IntegralConfig,
    ResourceBudgetError,
    diagonal_term,
    far_part_bound_check,
    majorant_compare,
    selberg_integral_decomposed,
    selberg_integral_direct,
)
from msi.short_sums import FejerWindow, chi_tilde_direct, literal_mean_square
from msi.spectral import exp_sum_closed_form, fejer_kernel_value, ramanujan_coefficient


def forbid_work(monkeypatch):
    """Make the direct sweep and the Farey enumeration fail if a guard lets them run."""
    def untouchable(*args, **kwargs):
        raise AssertionError("work started before the guard")

    monkeypatch.setattr(integral_mod, "selberg_integral_direct", untouchable)
    monkeypatch.setattr(integral_mod, "farey_columns", untouchable)


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

    def test_from_presets_matches_explicit_config(self):
        for cut in (SupportCutoff.fixed(9), SupportCutoff.power(0.5)):
            cfg = IntegralConfig.from_presets(100, 4, "mobius", cut, a=50.0)
            top = cut.limit(2 * 100 + 4)
            assert cfg == IntegralConfig(
                n=100, h=4, g=preset_table("mobius", top), cutoff=cut, a=50.0, g_name="mobius"
            )

    def test_from_presets_checks_before_tabulating(self, monkeypatch):
        def untouchable(*args, **kwargs):
            raise AssertionError("g tabulated before the config check")

        monkeypatch.setattr(integral_mod, "preset_table", untouchable)
        for n, h, q in ((256, 2, 10 ** 9), (30, 3, 5), (8, 4, 4)):
            with pytest.raises(ValueError):
                IntegralConfig.from_presets(n, h, "unit", SupportCutoff.fixed(q))

    @pytest.mark.parametrize("a", [0, -1.0, math.inf, math.nan])
    def test_spacing_parameter_finite_and_positive(self, a, monkeypatch):
        with pytest.raises(ValueError, match="spacing parameter"):
            IntegralConfig(n=30, h=2, g=preset_table("mobius", 5), cutoff=SupportCutoff.fixed(5), a=a)

        def untouchable(*args, **kwargs):
            raise AssertionError("g tabulated before the config check")

        monkeypatch.setattr(integral_mod, "preset_table", untouchable)
        with pytest.raises(ValueError, match="spacing parameter"):
            IntegralConfig.from_presets(30, 2, "mobius", SupportCutoff.fixed(5), a=a)

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
        assert exact == literal_mean_square(g, 8, 2, cfg.cutoff) == Fraction(17, 36)
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
        assert selberg_integral_direct(small, exact=True) == literal_mean_square(g, 100, 2, small.cutoff)

        def untouchable(*args, **kwargs):
            raise AssertionError("work started before the guard")

        monkeypatch.setattr(integral_mod, "_multiple_counts_each", untouchable)
        monkeypatch.setattr(integral_mod, "_table_plan", untouchable)
        monkeypatch.setattr(integral_mod, "_periodic_tables", untouchable)
        monkeypatch.setattr(integral_mod, "_short_sums", untouchable)
        # (2N + 2h) h D sum|g| >= 40008 * (10^15 + 1) >= 2^63; N = 2^17 runs in several blocks,
        # whose periodic tables would be built first
        assert 2 ** 17 > integral_mod.SWEEP_BLOCK
        for n in (10 ** 4, 2 ** 17):
            for cutoff in (SupportCutoff.fixed(2), SupportCutoff.power(0.5)):
                cfg = IntegralConfig(n=n, h=2, g=g, cutoff=cutoff)
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
    def test_multiple_counts_are_the_windowed_counts(self):
        # the integer table behind the power-cutoff sweep and P1/P4, against the exact chi_tilde
        for q in range(1, 41):
            for h in range(2, 13, 2):
                t = integral_mod._multiple_counts(q, h)
                for x in range(h + 1, h + 1 + q):
                    want = chi_tilde_direct(q, x, FejerWindow(h))
                    assert Fraction(int(t[x % q]), h) - Fraction(h, q) == want

    def test_exact_equals_literal_oracle(self):
        n, h = 20, 2
        g = random_rational_table(7, seed=15)
        cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.power(0.5))
        got = selberg_integral_direct(cfg, exact=True)
        assert got == literal_mean_square(g, n, h, cfg.cutoff)
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


class TestSweepBlocks:
    def test_fixed_blocks_do_not_change_the_sums(self, monkeypatch):
        configs = [
            IntegralConfig(n=300, h=4, g=random_rational_table(5, seed=8), cutoff=SupportCutoff.fixed(5)),
            IntegralConfig(n=1000, h=4, g=preset_table("mobius-squared", 12), cutoff=SupportCutoff.fixed(12)),
        ]
        whole = [selberg_integral_direct(cfg, exact=True) for cfg in configs]
        for cfg, want in zip(configs, whole):
            assert want == literal_mean_square(cfg.g, cfg.n, cfg.h, cfg.cutoff)
        # SWEEP_BLOCK = 1 gives blocks of 16 Q: 80 centers (tables of period at most 20) and 192
        # (at most 48); 400 gives one block of 300 and blocks of 400 centers, the last one short.
        # TABLE_LIMIT = 1 keeps one table and sieves the d it leaves over.
        for size in (1, 400):
            for limit in (1, integral_mod.TABLE_LIMIT):
                monkeypatch.setattr(integral_mod, "SWEEP_BLOCK", size)
                monkeypatch.setattr(integral_mod, "TABLE_LIMIT", limit)
                for cfg, want in zip(configs, whole):
                    assert selberg_integral_direct(cfg, exact=True) == want
                    assert math.isclose(selberg_integral_direct(cfg), float(want), rel_tol=1e-14)

    def test_power_segment_starting_on_a_block_boundary(self, monkeypatch):
        n, h, theta = 1000, 2, 0.5
        g = random_rational_table(power_floor(2 * n + h, theta), seed=21)
        cfg = IntegralConfig(n=n, h=h, g=g, cutoff=SupportCutoff.power(theta))
        whole = selberg_integral_direct(cfg, exact=True)
        # q = 40 joins at the center 40**2 - h, index 597 of the sweep, past 16 Q0 = 496
        q = 40
        boundary = q * q - h - (n + 1)
        assert g[q] != 0 and boundary >= 16 * power_floor(n + h + 1, theta)
        monkeypatch.setattr(integral_mod, "SWEEP_BLOCK", boundary)
        assert selberg_integral_direct(cfg, exact=True) == whole == literal_mean_square(g, n, h, cfg.cutoff)
        assert math.isclose(selberg_integral_direct(cfg), float(whole), rel_tol=1e-14)

    def test_power_blocks_do_not_change_the_sums(self, monkeypatch):
        n, h, theta = 3000, 4, 0.6
        cfg = IntegralConfig(
            n=n, h=h, g=preset_table("mobius", power_floor(2 * n + h, theta)),
            cutoff=SupportCutoff.power(theta),
        )
        whole = selberg_integral_direct(cfg, exact=True)
        monkeypatch.setattr(integral_mod, "SWEEP_BLOCK", 1)  # blocks of 16 Q0 = 1952 centers
        assert selberg_integral_direct(cfg, exact=True) == whole
        assert math.isclose(selberg_integral_direct(cfg), float(whole), rel_tol=1e-14)

    def test_memory_does_not_grow_with_n(self):
        # one int64 array over the 2^21 centers alone would take 16.8 MB
        cfg = IntegralConfig(n=2 ** 21, h=336, g=preset_table("mobius", 78), cutoff=SupportCutoff.fixed(78))
        tracemalloc.start()
        try:
            selberg_integral_direct(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 6

    @pytest.mark.parametrize(
        "preset, want", [("mobius", 13947.80752397038), ("mobius-squared", 17919.15096540489)]
    )
    def test_last_bits_at_two_to_the_21(self, preset, want):
        # correctly rounded exact values (perfbench/make_refs.py) for N = 2^21, h = 336, Q = 78: 32 blocks
        cfg = IntegralConfig(n=2 ** 21, h=336, g=preset_table(preset, 78), cutoff=SupportCutoff.fixed(78))
        assert float(selberg_integral_direct(cfg, exact=True)) == want
        assert abs(selberg_integral_direct(cfg) - want) <= 4e-16 * want


# (N, h, Q) of `msi sweep --n-values 262144,524288,1048576,2097152` under its default rules
LARGE_SWEEP_ROWS = ((262144, 146, 42), (524288, 194, 51), (1048576, 256, 64), (2097152, 336, 78))


def sieve_only_plan(gd, q_max, bound):
    """A table plan that tables nothing: every d goes through the sieve and the cumulative sums."""
    return [], [d for d in range(1, q_max + 1) if gd[d]]


def route_config(name):
    """(config, whether the plan tables every d, the tables' integer type) of a multi-block sweep."""
    n, fixed = 2 ** 17, SupportCutoff.fixed
    if name in ("mobius", "mobius-squared"):  # the default row at N = 2^18
        return IntegralConfig(n=2 ** 18, h=146, g=preset_table(name, 42), cutoff=fixed(42)), True, np.int32
    if name == "random, D = 10^3":
        return IntegralConfig(n=n, h=64, g=random_rational_table(40, seed=5), cutoff=fixed(40)), True, np.int32
    if name == "random, D = 10^6":  # (3h + 1) h D sum|g| passes 2^31: int64 tables
        g = FunctionTable([Fraction(1, 10 ** 6), *random_rational_table(39, seed=5).values])
        return IntegralConfig(n=n, h=64, g=g, cutoff=fixed(40)), True, np.int64
    if name == "power:0.5":
        return IntegralConfig.from_presets(n, 8, "mobius", SupportCutoff.power(0.5)), False, np.int64
    if name == "power:0.3":  # 4 groups hold every d <= Q0 = 34; q = 35..42 are added
        return IntegralConfig.from_presets(n, 16, "mobius", SupportCutoff.power(0.3)), True, np.int32
    return IntegralConfig.from_presets(n, 16, "mobius", fixed(300)), False, np.int64


ROUTE_CONFIGS = [
    "mobius", "mobius-squared", "random, D = 10^3", "random, D = 10^6",
    "power:0.5", "power:0.3", "fixed Q = 300",
]


class TestPeriodicTables:
    @pytest.mark.parametrize("name", ROUTE_CONFIGS)
    def test_tables_and_sieve_give_one_answer(self, name, monkeypatch):
        cfg, all_tabled, dtype = route_config(name)
        assert cfg.n > integral_mod.SWEEP_BLOCK
        plans, types, starts, bincounts = [], [], [], []
        plan, build = integral_mod._table_plan, integral_mod._periodic_tables
        counts = integral_mod._multiple_counts_each

        def spy_plan(*args):
            plans.append(plan(*args))
            return plans[-1]

        def spy_build(gd, groups, added, h, bound, dt):
            types.append(dt)
            tables = build(gd, groups, added, h, bound, dt)
            starts.append([start for start, _ in tables])
            return tables

        def spy_counts(qs, *args):
            bincounts.append(list(qs))
            return counts(qs, *args)

        monkeypatch.setattr(integral_mod, "_table_plan", spy_plan)
        monkeypatch.setattr(integral_mod, "_periodic_tables", spy_build)
        monkeypatch.setattr(integral_mod, "_multiple_counts_each", spy_counts)
        got, got_exact = selberg_integral_direct(cfg), selberg_integral_direct(cfg, exact=True)
        groups, sieve = plans[0]
        assert groups and (not sieve) == all_tabled and types[0] == dtype
        if not all_tabled:
            assert len(groups) == 1
        # one list: the groups from center 0, then each added q with g(q) != 0 from where Q(x + h) reaches it
        cut, n, h = cfg.cutoff, cfg.n, cfg.h
        q0 = cut.limit(n + h + 1)
        added = [q for q in range(q0 + 1, min(cut.limit(2 * n + h), cfg.g.max_n) + 1) if cfg.g[q]]
        assert starts[0][:len(groups)] == [0] * len(groups) and len(starts[0]) == len(groups) + len(added)
        for q, i in zip(added, starts[0][len(groups):]):  # center n + 1 + i is the first with Q(x + h) >= q
            assert cut.limit(n + i + h) < q <= cut.limit(n + 1 + i + h)
        # one bincount per sweep forms every table
        assert bincounts == [[d for _, ds in groups for d in ds] + added] * 2
        if name == "power:0.3":
            assert (len(groups), q0, len(added)) == (4, 34, 6)
        monkeypatch.setattr(integral_mod, "_table_plan", sieve_only_plan)
        assert selberg_integral_direct(cfg).hex() == got.hex()
        assert selberg_integral_direct(cfg, exact=True) == got_exact

    def test_default_rows_skip_the_cumulative_sums(self, monkeypatch):
        def untouchable(*args, **kwargs):
            raise AssertionError("the sieve and cumulative sums ran")

        calls = []
        counts = integral_mod._multiple_counts_each

        def spy_counts(*args):
            calls.append(len(args[0]))
            return counts(*args)

        monkeypatch.setattr(integral_mod, "_short_sums", untouchable)
        monkeypatch.setattr(integral_mod, "_multiple_counts_each", spy_counts)
        for n, h, q in LARGE_SWEEP_ROWS:
            for preset in ("mobius", "mobius-squared"):
                cfg = IntegralConfig(n=n, h=h, g=preset_table(preset, q), cutoff=SupportCutoff.fixed(q))
                calls.clear()
                assert selberg_integral_direct(cfg) > 0
                # every table from one bincount over the d <= Q with g(d) != 0
                assert calls == [sum(1 for d in range(1, q + 1) if cfg.g[d])]

    def test_plan_groups_stay_within_the_bound(self):
        for preset, q, bound in (("mobius", 78, 16384), ("random:4", 60, 16384), ("unit", 24, 96)):
            gd = integral_mod.integer_scaled(preset_table(preset, q), q)[1]
            groups, sieve = integral_mod._table_plan(gd, q, bound)
            members = [d for _, ds in groups for d in ds]
            assert sorted(members + sieve) == [d for d in range(1, q + 1) if gd[d]]
            assert len(members) == len(set(members))
            for period, ds in groups:
                assert period <= bound and period == math.lcm(*ds)


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
        num, den = farey_columns(48)
        zero = sum(
            1 for j, ell in zip(num.tolist(), den.tolist())
            if ramanujan_coefficient(g, ell, 48) == 0 or j * 16 % ell == 0
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
    num, den = farey_columns(q)
    fr = _fractions(num, den)
    weights = [
        float(ramanujan_coefficient(cfg.g, u.denominator, q)) * fejer_kernel_value(u, FejerWindow(h))
        for u in fr
    ]
    diag = math.fsum(
        w * w * (0.5 * n + 0.5 * exp_sum_closed_form(2 * u, n).real)
        for u, w in zip(fr, weights)
        if w != 0.0
    )

    def pair_sum(pairs, mode):
        return math.fsum(
            weights[i] * weights[k] * exp_sum_closed_form(pair_key(fr[i], fr[k], mode), n).real
            for i, k in pairs
            if weights[i] != 0.0 and weights[k] != 0.0
        )

    part_d = spaced_pair_partition(num, den, cfg.a_value, "difference")
    part_s = spaced_pair_partition(num, den, cfg.a_value, "wrapped_sum")
    counts = {
        "fractions": len(fr),
        "near_difference": len(part_d.near),
        "far_difference": len(part_d.far),
        "near_wrapped_sum": len(part_s.near),
        "far_wrapped_sum": len(part_s.far),
        "zero_weight_fractions": weights.count(0.0),
    }
    return (
        diag,
        pair_sum(part_d.near, "difference"),
        pair_sum(part_s.near, "wrapped_sum"),
        pair_sum(part_d.far, "difference"),
        pair_sum(part_s.far, "wrapped_sum"),
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

    @pytest.mark.parametrize(
        "n, h, q, g, a",
        [(5000, 16, 48, "mobius", None), (256, 4, 40, "mobius-squared", 256.0)],
        ids=["decompose", "near-pairs"],
    )
    def test_block_size_does_not_change_the_bits_at_scale(self, monkeypatch, n, h, q, g, a):
        cfg = IntegralConfig.from_presets(n, h, g, SupportCutoff.fixed(q), a)
        fields = ("diagonal", "near_delta", "near_sigma", "far_delta", "far_sigma", "total")
        runs, default = [], integral_mod.PAIR_BLOCK
        # one row per block; the default (16 and 8 blocks here); one block, reduced by fsum alone
        for block in (5, default, 10 ** 9):
            monkeypatch.setattr(integral_mod, "PAIR_BLOCK", block)
            rep = selberg_integral_decomposed(cfg)
            runs.append(([getattr(rep, f).hex() for f in fields], rep.pairs))
        assert runs[0] == runs[1] == runs[2]
        pairs = runs[0][1]
        assert pairs["far_difference"] + pairs["near_difference"] > 3 * default
        if a is not None:
            assert pairs["near_difference"] > 0

    def test_no_pair_block_without_pairs(self, monkeypatch):
        # Q = 2: the one fraction 1/2 has no partner, and its weight F_h(1/2) is 0 for even h
        cfg = IntegralConfig(n=16, h=2, g=random_rational_table(2, seed=4), cutoff=SupportCutoff.fixed(2))
        direct = selberg_integral_direct(cfg)

        def untouchable(*args, **kwargs):
            raise AssertionError("x-sums evaluated on no terms")

        monkeypatch.setattr(integral_mod, "_x_sum_array", untouchable)
        rep = selberg_integral_decomposed(cfg)
        assert rep.pairs == {
            "fractions": 1,
            "near_difference": 0,
            "far_difference": 0,
            "near_wrapped_sum": 0,
            "far_wrapped_sum": 0,
            "zero_weight_fractions": 1,
        }
        parts = (rep.diagonal, rep.near_delta, rep.near_sigma, rep.far_delta, rep.far_sigma, rep.total)
        assert parts == (0.0,) * 6
        assert rep.direct == direct

    def test_exact_tie_is_near(self):
        # 1/4 - 1/5 = 1/20 = 1/A exactly
        cfg = IntegralConfig(n=16, h=2, g=random_rational_table(5, seed=3), cutoff=SupportCutoff.fixed(5), a=20)
        rep = assert_matches_reference(cfg)
        assert rep.pairs["near_difference"] == 1
        assert rep.near_delta != 0.0

    def test_tiny_a_makes_every_pair_near(self):
        # 1/A = 1e320 is beyond the float range; every key is at most 1/2, so every pair is NEAR
        cfg = IntegralConfig(n=100, h=2, g=preset_table("mobius", 5), cutoff=SupportCutoff.fixed(5), a=1e-320)
        rep = assert_matches_reference(cfg)
        pairs = rep.pairs["fractions"] * (rep.pairs["fractions"] - 1) // 2
        assert rep.pairs["near_difference"] == rep.pairs["near_wrapped_sum"] == pairs > 0
        assert rep.far_delta == rep.far_sigma == 0.0

    def test_float_ties_are_settled_exactly(self):
        # float(1/A) == float(1/7) in both cases; exactly 1/A < 1/7 for the first A, = for the second,
        # and float(1/A) == float(1/13) with 1/A > 1/13 exactly for the third
        for a, q in ((math.nextafter(7.0, 8.0), 7), (7.0, 7), (math.nextafter(13.0, 12.0), 13)):
            cfg = IntegralConfig(n=60, h=2, g=random_rational_table(q, seed=q), cutoff=SupportCutoff.fixed(q), a=a)
            assert float(1 / Fraction(a)) in (1 / 7, 1 / 13)
            assert_matches_reference(cfg)


def carried_sums(terms, labels, parts, cut):
    """_ExactSums totals per part: terms[:cut] added in two calls, the rest as each part's tail."""
    sums = integral_mod._ExactSums(parts)
    half = cut // 2
    sums.add(terms[:half], labels[:half])
    sums.add(terms[half:cut], labels[half:cut])
    tail, tail_labels = terms[cut:], labels[cut:]
    return [sums.total(j, tail[tail_labels == j]) for j in range(parts)]


def fsums(terms, labels, parts):
    return [math.fsum(terms[labels == j].tolist()) for j in range(parts)]


def spread_terms():
    rng = np.random.default_rng(5)
    powers = 2.0 ** np.arange(-1000, 1001, 7)
    return powers * rng.choice([-1.0, 1.0], powers.size) * (1 + rng.random(powers.size))


def random_terms():
    rng = np.random.default_rng(11)
    return rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 12, 20_000)


def subnormal_terms():
    tiny = [5e-324, -5e-324, 2.0 ** -1022, 2.0 ** -1021, -3e-320, 12345 * 2.0 ** -1074, 2.0 ** -1023]
    return np.array(tiny * 3 + [1e-300, -1e-300, 2.0 ** -1000])


class TestExactSums:
    """_ExactSums equals one math.fsum per part, bit for bit, wherever the blocks are cut."""

    @pytest.mark.parametrize(
        "terms",
        [
            np.array([]),
            np.array([3.7]),
            np.zeros(10),
            np.array([2.0 ** 60, 1.0, -(2.0 ** 60)]),
            spread_terms(),
            np.full(10 ** 5, 0.1),
            random_terms(),
            subnormal_terms(),
        ],
        ids=["empty", "single", "zeros", "cancellation", "spread", "copies", "random", "subnormal"],
    )
    def test_equals_one_fsum_per_part(self, terms):
        rng = np.random.default_rng(terms.size)
        for parts in (1, 4):
            labels = rng.permutation(np.arange(terms.size) % parts)
            want = [x.hex() for x in fsums(terms, labels, parts)]
            for cut in {0, terms.size // 3, terms.size}:
                got = [x.hex() for x in carried_sums(terms, labels, parts, cut)]
                assert got == want, (parts, cut)

    @pytest.mark.parametrize(
        "bad, check", [(math.inf, math.isinf), (-math.inf, math.isinf), (math.nan, math.isnan)]
    )
    def test_non_finite_terms_give_a_non_finite_part(self, bad, check):
        terms = np.array([1.0, bad, 2.5, -4.0])
        labels = np.array([0, 0, 1, 1])
        for cut in (0, 2, 4):
            got = carried_sums(terms, labels, 2, cut)
            assert check(got[0])
            assert got[1] == -1.5

    def test_opposite_infinities_in_two_blocks_are_not_finite(self):
        sums = integral_mod._ExactSums(1)
        sums.add(np.array([math.inf, 1.0]), np.zeros(2, dtype=np.int64))
        sums.add(np.array([-math.inf]), np.zeros(1, dtype=np.int64))
        assert math.isnan(sums.total(0))

    def test_overflowing_bucket_raises(self):
        big = np.finfo(np.float64).max
        sums = integral_mod._ExactSums(1)
        sums.add(np.array([big, big]), np.zeros(2, dtype=np.int64))
        with pytest.raises(OverflowError):
            sums.total(0, [-big])
        with pytest.raises(OverflowError):
            math.fsum([big, big, -big])

    def test_refuses_blocks_it_cannot_sum_exactly(self):
        terms = np.broadcast_to(1.0, (1 << 26,))  # no memory behind it: refused before any pass
        with pytest.raises(ValueError, match="2\\*\\*26"):
            integral_mod._ExactSums(1).add(terms, np.broadcast_to(0, terms.shape))


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
            k = farey_columns(q)[0].size
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
        rep = majorant_compare(cfg, g)
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
        rep = majorant_compare(cfg, bigg)
        assert rep.ratio >= 0.0

    def test_report_only_unit_majorant(self):
        # cautionary case: G = 1 is a valid but trivial majorant; its own mean square swamps g's
        g = preset_table("random:42", 8)
        cfg = IntegralConfig(n=32, h=2, g=g, cutoff=SupportCutoff.fixed(8), g_name="random:42")
        rep = majorant_compare(cfg, preset_table("unit", 8))
        assert rep.j_F == pytest.approx(42722 / 1225, rel=1e-12)  # 34.875
        assert rep.j_f == pytest.approx(9269573973 / 1225000000, rel=1e-12)  # 7.567
        assert rep.j_F > rep.j_f
        assert rep.ratio == rep.j_f / (rep.j_F + rep.n_h) < 0.08
