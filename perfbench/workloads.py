"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload stresses a different layer of msi:

- majorant-sweep: `msi sweep` over N = 2^18..2^21 with the default rules
  (h = N^0.4, Q = N^0.3, g = mobius, G = mobius-squared). Nearly all time is
  the fixed-cutoff prefix-sum sweep in msi.integral; farey and spectral are
  never touched, so it is the control for decomposition work.
- power-cutoff: `msi integral` with a growing support cutoff Q(x) =
  sqrt(x + h), the per-center, per-q Python loop of the direct sweep.
- decompose: `msi integral --decompose` at N = 5000, h = 16, Q = 48: one
  large spectral decomposition (63,190 oriented fraction pairs, all FAR at
  the default A = N log N), dominated by the pair partition and pair sums.
- gate-grid: selberg_integral_decomposed on each of the 2,230 small configs
  of the step-8 reconstruction grid. Thousands of ~1 ms calls, where
  per-call overhead and cache reuse dominate, and the only workload with
  NEAR pairs.

msi is imported inside the functions, so make_refs.py can read the workload
constants without importing the code it checks.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stdout
from time import perf_counter

# (N, h, Q) rows that `msi sweep --n-values ...` derives with its default rules
SWEEP_ROWS = (
    (262144, 146, 42),
    (524288, 194, 51),
    (1048576, 256, 64),
    (2097152, 336, 78),
)
POWER_CUTOFF = {"n": 8000, "h": 8, "theta": 0.5}
DECOMPOSE = {"n": 5000, "h": 16, "q": 48}
DECOMPOSE_PAIRS = 356 * 355 // 2  # M(M-1)/2 oriented pairs, M = 356 fractions for Q = 48

CLI_ARGV = {
    "majorant-sweep": ["sweep", "--n-values", ",".join(str(n) for n, _, _ in SWEEP_ROWS)],
    "power-cutoff": [
        "integral", "--n", str(POWER_CUTOFF["n"]), "--h", str(POWER_CUTOFF["h"]),
        "--g", "mobius", "--cutoff", f"power:{POWER_CUTOFF['theta']}",
    ],
    "decompose": [
        "integral", "--n", str(DECOMPOSE["n"]), "--h", str(DECOMPOSE["h"]),
        "--q", str(DECOMPOSE["q"]), "--g", "mobius", "--decompose",
    ],
}
NAMES = (*CLI_ARGV, "gate-grid")

# Float results against the exact references. The largest relative gap at
# this commit is 9.3e-11, j_F at N = 2^21: there the short sums (~900)
# cancel against the mean down to deviations of ~0.1, so the sweep's
# rounding is amplified. 1e-9 leaves a factor of ten.
REF_REL_TOL = 1e-9
# Reconstruction |total - direct| <= tol * (1 + direct): J1's randomized
# tolerance for the large decomposition, its grid tolerance for the grid.
DECOMPOSE_J1_TOL = 1e-6
GRID_J1_TOL = 1e-8


def grid_configs(seed: int) -> list:
    """The step-8 reconstruction grid, shifted and reseeded by `seed`.

    The seed picks the N offset (seed mod 8) inside the step-8 grid and
    salts the random-rational g seeds; mobius and unit presets are added on
    every other N. Seed 0 reproduces calibration.reconstruction_grid(n_step=8)
    exactly; every seed has 25 values of N, so the work stays the same.
    """
    from msi import arith, integral

    offset = seed % 8
    salt = 1_000_000 * seed
    configs = []
    for i in range(25):
        n = 8 + offset + 8 * i
        for h in (2, 4, 6, 8):
            if h > 2 and 4 * h > n:
                continue
            for q in range(1, 13):
                if q > n + h:
                    continue
                cut = arith.SupportCutoff.fixed(q)
                g = arith.random_rational_table(q, seed=n * 100 + q * 10 + h + salt)
                configs.append(integral.IntegralConfig(n=n, h=h, g=g, cutoff=cut, g_name="random"))
                if i % 2 == 1:
                    for preset in ("mobius", "unit"):
                        configs.append(integral.IntegralConfig(
                            n=n, h=h, g=arith.preset_table(preset, q), cutoff=cut, g_name=preset
                        ))
    return configs


def build(name: str, seed: int):
    """Inputs of one pass. The CLI workloads are fixed presets; the seed only moves gate-grid."""
    if name == "gate-grid":
        return grid_configs(seed)
    return list(CLI_ARGV[name])


def items(name: str, inputs) -> int:
    """Work items of one pass, the numerator of items_per_s."""
    if name == "majorant-sweep":
        return sum(2 * n for n, _, _ in SWEEP_ROWS)
    if name == "power-cutoff":
        return POWER_CUTOFF["n"]
    if name == "decompose":
        return DECOMPOSE_PAIRS
    return len(inputs)


def solve(name: str, inputs):
    """Run one pass. Returns (outputs, per-operation seconds, pass seconds).

    Module attributes are looked up at call time, so a traced pass reaches
    the wrapped functions.
    """
    if name == "gate-grid":
        from msi import integral

        reports, op_s = [], []
        start = perf_counter()
        for cfg in inputs:
            t0 = perf_counter()
            reports.append(integral.selberg_integral_decomposed(cfg))
            op_s.append(perf_counter() - t0)
        return reports, op_s, perf_counter() - start

    from msi import cli

    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        code = cli.main(inputs)
    elapsed = perf_counter() - start
    return (code, out.getvalue()), [elapsed], elapsed


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REF_REL_TOL * abs(ref)


def check(name: str, outputs, refs: dict) -> tuple[int, int]:
    """Check one pass's outputs. Returns (operations attempted, operations failed).

    A CLI command is one operation; a gate-grid decomposition is one.
    """
    if name == "gate-grid":
        failed = sum(
            1 for rep in outputs
            if not (abs(rep.total - rep.direct) <= GRID_J1_TOL * (1.0 + rep.direct)
                    and rep.direct >= 0.0 and rep.diagonal >= 0.0)
        )
        return len(outputs), failed
    code, text = outputs
    try:
        ok = code == 0 and _cli_output_ok(name, text, refs[name])
    except (ValueError, KeyError, TypeError):  # output that does not parse
        ok = False
    return 1, int(not ok)


def _cli_output_ok(name: str, text: str, ref) -> bool:
    if name == "majorant-sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        return len(rows) == len(ref) and all(
            (int(row["N"]), int(row["h"]), int(row["Q"])) == (want["n"], want["h"], want["q"])
            and _close(float(row["j_f"]), want["j_f"])
            and _close(float(row["j_F"]), want["j_F"])
            for row, want in zip(rows, ref)
        )
    payload = json.loads(text)
    direct = payload["direct"]
    if name == "power-cutoff":
        return _close(direct, ref["direct"])
    return _close(direct, ref["direct"]) and (
        abs(payload["total"] - direct) <= DECOMPOSE_J1_TOL * (1.0 + direct)
    )
