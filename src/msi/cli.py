"""Command-line front end: sieves, integrals, verification suites, sweeps.

Exit codes: 0 success / all properties pass, 1 property failure,
2 usage error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import SupportCutoff, preset_table, sieve_divisor_count, write_csv
from .farey import farey_columns
from .integral import (
    IntegralConfig,
    ResourceBudgetError,
    selberg_integral_decomposed,
    selberg_integral_direct,
)
from .verify import H_RULE, Q_RULE, SUITES, majorant_sweep, run_suite

G_CHOICES = "delta1|unit|mobius|mobius-squared|random:SEED"


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def cmd_sieve(args) -> int:
    if args.kind == "divisor":
        table = sieve_divisor_count(args.max_n)
    else:
        table = preset_table(args.kind, args.max_n)
    stream, close = _open_out(args.out)
    try:
        write_csv(table, stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_farey(args) -> int:
    num, den = farey_columns(args.q)
    row = "{},{},{!r}\n" if args.csv else "{}/{}\t{!r}\n"
    stream, close = _open_out(args.out)
    try:
        if args.csv:
            stream.write("num,den,value\n")
        for a, b in zip(num.tolist(), den.tolist()):
            stream.write(row.format(a, b, a / b))  # int division: the correctly rounded a/b
    finally:
        if close:
            stream.close()
    return 0


def cmd_integral(args) -> int:
    cutoff = SupportCutoff.parse(args.cutoff, args.q)
    cfg = IntegralConfig.from_presets(args.n, args.h, args.g, cutoff, a=args.a)
    q_label = cfg.cutoff.q if cfg.cutoff.mode == "fixed" else f"power:{cfg.cutoff.theta}"
    if not args.decompose:
        direct = selberg_integral_direct(cfg)
        if args.csv:
            print("N,h,Q,g,j_direct")
            print(f"{cfg.n},{cfg.h},{q_label},{cfg.g_name},{direct!r}")
        else:
            print(json.dumps({
                "config": _config_json(cfg),
                "direct": direct,
            }, indent=2))
        return 0
    rep = selberg_integral_decomposed(cfg, force=args.force)
    if args.csv:
        print("N,h,Q,g,j_direct,j_total,diagonal,near,far,gap")
        near = rep.near_delta + rep.near_sigma
        far = rep.far_delta + rep.far_sigma
        print(
            f"{cfg.n},{cfg.h},{q_label},{cfg.g_name},{rep.direct!r},{rep.total!r},"
            f"{rep.diagonal!r},{near!r},{far!r},{rep.abs_gap!r}"
        )
    else:
        payload = {"config": _config_json(cfg)}
        payload.update(vars(rep))
        print(json.dumps(payload, indent=2))
    return 0


def _config_json(cfg: IntegralConfig) -> dict:
    return {
        "n": cfg.n,
        "h": cfg.h,
        "cutoff": cfg.cutoff.label(),
        "g": cfg.g_name,
        "a": cfg.a_value,
    }


def cmd_verify(args) -> int:
    stream, close = _open_out(args.out)  # before the suite: a bad --out fails before any property
    try:
        report = run_suite(args.suite, fast=args.fast)
        payload = report.to_json()
        if close:
            json.dump(payload, stream, indent=2)
    finally:
        if close:
            stream.close()
    print(json.dumps(payload, indent=2))
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    n_values = [int(v) for v in args.n_values.split(",")]
    rows = majorant_sweep(n_values, args.h_rule, args.q_rule, args.g, args.G, args.cutoff)
    stream, close = _open_out(args.out)
    try:
        stream.write("N,h,Q,g,G,j_f,j_F,nh,ratio\n")
        for (n, h, q), rep in rows:
            stream.write(
                f"{n},{h},{q},{args.g},{args.G},"
                f"{rep.j_f!r},{rep.j_F!r},{rep.n_h!r},{rep.ratio!r}\n"
            )
    finally:
        if close:
            stream.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msi",
        description="Short-interval mean squares: sieves, integrals, verification suites, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="tabulate an arithmetic function as CSV")
    p.add_argument("--kind", required=True,
                   help=f"{G_CHOICES}|divisor")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("farey", help="enumerate reduced fractions in (0, 1/2]")
    p.add_argument("--q", type=int, required=True, help="maximal denominator")
    p.add_argument("--csv", action="store_true", help="CSV with header num,den,value")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("integral", help="mean square of centered short sums")
    p.add_argument("--n", type=int, required=True, help="sweep over x in (N, 2N]")
    p.add_argument("--h", type=int, required=True, help="even window half-width")
    p.add_argument("--q", type=int, default=None, help="fixed support bound (fixed cutoff only)")
    p.add_argument("--g", required=True, help=G_CHOICES)
    p.add_argument("--cutoff", default=None, help="fixed (default) or power:THETA")
    p.add_argument("--a", type=float, default=None,
                   help="spacing parameter, finite and > 0 (default N log N)")
    p.add_argument("--decompose", action="store_true",
                   help="also compute the spectral decomposition (fixed cutoff only)")
    p.add_argument("--force", action="store_true",
                   help="ignore the fraction-pair budget")
    p.add_argument("--csv", action="store_true", help="CSV output (default JSON)")
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--fast", action="store_true", help="reduced grids for a smoke run")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="majorant comparison across a list of N")
    p.add_argument("--n-values", required=True, dest="n_values",
                   help="comma-separated N list, e.g. 1024,2048,4096")
    p.add_argument("--h-rule", default=H_RULE, dest="h_rule",
                   help=f"pow:EXP or const:V (even-rounded, default {H_RULE})")
    p.add_argument("--q-rule", default=Q_RULE, dest="q_rule",
                   help=f"pow:EXP or const:V (default {Q_RULE}); fixed cutoff only")
    p.add_argument("--g", default="mobius", help=G_CHOICES)
    p.add_argument("--G", default="mobius-squared", help="majorant preset")
    p.add_argument("--cutoff", default=None, help="fixed (default) or power:THETA")
    p.add_argument("--out", default="-", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
