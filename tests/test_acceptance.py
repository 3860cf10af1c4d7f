"""Acceptance gate: ten criteria, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test also asserts its criterion at the pinned tolerance and runtime budget.
"""

import time

from msi import verify


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}  ({detail})")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def test_c01_two_forms_identity():
    rep, dt = _timed(verify.check_two_forms)
    _line(1, "two-forms identity I1, exact rationals", rep.passed,
          f"{rep.instances} instances, {dt:.1f}s")
    assert rep.passed
    assert dt < 30


def test_c02_expansion_identity():
    rep, dt = _timed(verify.check_expansion_identity)
    _line(2, "expansion vs direct counts P1, tol 1e-9*(1+h)", rep.passed,
          f"{rep.instances} instances, max {rep.max_error:.2e}, {dt:.1f}s")
    assert rep.passed
    assert dt < 60


def test_c03_parseval_and_square_sum_bound():
    p4, dt4 = _timed(verify.check_parseval)
    p5, dt5 = _timed(verify.check_square_sum_bound)
    ok = p4.passed and p5.passed
    _line(3, "Parseval P4 (rel 1e-9) + square-sum bound P5 (frozen C)", ok,
          f"P4 max {p4.max_error:.2e}, P5 worst ratio {p5.max_error:.3f}, {dt4 + dt5:.1f}s")
    assert p4.passed
    assert p5.passed
    assert dt4 + dt5 < 120


def test_c04_reconstruction():
    (j1, j2), dt = _timed(verify.check_reconstruction)
    ok = j1.passed and j2.passed
    _line(4, "decomposition reconstructs direct sweep J1 (1e-8 grid, 1e-6 randomized)", ok,
          f"{j1.instances} configs, max rel gap {j1.max_error:.2e}, {dt:.1f}s")
    assert j1.passed
    assert j2.passed
    assert dt < 120


def test_c05_far_part_bound():
    rep, dt = _timed(verify.check_far_part_bound)
    _line(5, "well-spaced part bound |far| <= C_far*A*h, A in {N, N log N}", rep.passed,
          f"{rep.instances} configs, worst ratio {rep.max_error:.3f}, {dt:.1f}s")
    assert rep.passed
    assert dt < 60


def test_c06_farey_suite():
    suite, dt = _timed(verify.suite_farey)
    detail = ", ".join(f"{p.name}:{p.instances}" for p in suite.properties)
    _line(6, "Farey suite F1-F4 + min-gap, exhaustive to Q=300", suite.passed,
          f"{detail}, {dt:.1f}s")
    assert suite.passed
    assert dt < 10


def test_c07_majorant_growth():
    (rows, ok, worst), dt = _timed(verify.majorant_growth_experiment)
    ratios = ", ".join(f"2^{i + 10}:{rep.ratio:.2e}" for i, (_, rep, _) in enumerate(rows))
    _line(7, "growth check: ratio(N) <= ratio(2^10) * (N/2^10)^0.2", ok,
          f"{ratios}, {dt:.1f}s")
    assert ok
    assert dt < 300


def test_c08_power_cutoff_oracle():
    rep, dt = _timed(verify.check_power_cutoff_oracle)
    _line(8, "power-cutoff sweep equals literal per-x oracle J6, exact", rep.passed,
          f"{rep.instances} configs, {dt:.1f}s")
    assert rep.passed
    assert dt < 30


def test_c09_exponential_sum_bound():
    rep, dt = _timed(verify.check_exp_sum_bound)
    _line(9, "exp-sum bound |sum| <= min(N, 1/(2||a||))", rep.passed,
          f"{rep.instances} draws, worst ratio {rep.max_error:.4f}, {dt:.1f}s")
    assert rep.passed
    assert dt < 5


def test_c10_performance_budget():
    (secs, value), dt = _timed(verify.performance_probe)
    ok = secs < 10
    _line(10, "direct sweep at N=1e6, h=1e3, Q=1e3 under 10s", ok,
          f"sweep {secs:.2f}s, value {value:.6g}")
    assert value >= 0.0
    assert ok
