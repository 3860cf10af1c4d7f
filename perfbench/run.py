"""msi benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see workloads.py): majorant-sweep,
power-cutoff, decompose, gate-grid. Each pass runs in a fresh interpreter
(one_pass.py) with MSI_THREADS unset, one pass at a time, so the lru caches
of msi start cold as they do for every `msi` command. Passes repeat until S
seconds are used: at least three, or two of each kind when tracing. Every
pass checks its outputs against the exact references in refs.json (made by
make_refs.py) or, on gate-grid, against the reconstruction properties J1
and J2.

--trace 0 reports the end-to-end metrics, each the median over passes:
setup_s (interpreter start to inputs built), solve_s (one pass),
items_per_s, op_p50_ms and op_p99_ms (over all operations of the run: a
decomposition on gate-grid, the whole command on the others),
peak_rss_mb (ru_maxrss of the pass process). Failed operations are the
`failed` field of the result line, against `attempted`.

--trace 1 alternates untraced passes with traced ones (spans.py) and
reports per-layer metrics: each layer's self time as a share of the traced
passes, exact call, pair, fraction and cache counters (asserted identical
across traced passes), the traced pass time and the tracing overhead
(traced minus untraced median solve_s).

The line before the result is a run record: machine, versions, git sha,
seed, and per pass its times and the hypervisor steal ticks from /proc/stat.
The last line is the result, {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, PAIR_COUNTERS, ROOTS
from workloads import NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # untraced run; a traced run needs two passes of each kind
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def steal_ticks() -> int | None:
    """Hypervisor steal time of the whole machine, in clock ticks (read-only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_pass(workload: str, seed: int, trace: int, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("MSI_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    steal0 = steal_ticks()
    spawned = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--spawned", repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    wall = perf_counter() - spawned
    steal1 = steal_ticks()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(
        trace_flag=trace, wall_s=wall,
        steal_ticks=None if steal0 is None or steal1 is None else steal1 - steal0,
    )
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    """Passes until `seconds` are used; alternates untraced and traced when tracing."""
    kinds = (0, 1) if trace else (0,)
    min_passes = 2 if trace else MIN_PASSES
    start = perf_counter()
    passes: list[dict] = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        elapsed = perf_counter() - start
        if elapsed > RUN_LIMIT_S:
            raise BenchError(f"{workload}: {len(passes)} passes took {elapsed:.0f} s")
        passes.append(run_pass(workload, seed, kind, RUN_LIMIT_S - elapsed))
        done = min(sum(1 for p in passes if p["trace_flag"] == k) for k in kinds)
        typical = statistics.median(p["wall_s"] for p in passes)
        if done >= min_passes and perf_counter() - start + typical > seconds:
            return passes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> dict:
    solve_s = statistics.median(p["solve_s"] for p in passes)
    ops = [t for p in passes for t in p["op_s"]]
    return {
        "setup_s": metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "solve_s": metric(solve_s, "s"),
        "items_per_s": metric(passes[0]["items"] / solve_s, "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(ops), "ms"),
        "op_p99_ms": metric(1e3 * statistics.quantiles(ops, n=100)[98], "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(passes: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics and whether the counts repeated exactly across traced passes."""
    traced = [p for p in passes if p["trace_flag"]]
    untraced = [p for p in passes if not p["trace_flag"]]
    counts = traced[0]["trace"]["counts"]
    repeated = all(p["trace"]["counts"] == counts for p in traced)
    root_s = sum(p["trace"]["root_s"] for p in traced)
    self_s = {name: 0.0 for name, _, _ in LAYERS}
    self_s.update({name: 0.0 for name in ROOTS})
    for p in traced:
        for name, s in p["trace"]["self_s"].items():
            self_s[name] += s
    # the self times of layers and roots partition the root spans exactly
    additive = abs(sum(self_s.values()) - root_s) <= 1e-9 * root_s

    out = {}
    for name, _, _ in LAYERS:
        out[f"{name}.self_pct"] = metric(100.0 * self_s[name] / root_s, "%")
        out[f"{name}.calls"] = metric(counts[f"{name}.calls"], "count")
    for key in (*PAIR_COUNTERS, "farey.fractions"):
        out[key] = metric(counts[key], "count")
    for prefix in ("integral.x_sum", "spectral.coefficient", "farey.farey_enumerate"):
        hits, misses = counts[f"{prefix}.hits"], counts[f"{prefix}.misses"]
        out[f"{prefix}.hits"] = metric(hits, "count")
        out[f"{prefix}.misses"] = metric(misses, "count")
        out[f"{prefix}.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    traced_solve = statistics.median(p["solve_s"] for p in traced)
    out["trace.unattributed_pct"] = metric(
        100.0 * sum(self_s[name] for name in ROOTS) / root_s, "%"
    )
    out["trace.solve_s"] = metric(traced_solve, "s")
    out["trace.overhead_s"] = metric(
        traced_solve - statistics.median(p["solve_s"] for p in untraced), "s"
    )
    return out, repeated and additive


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, passes: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "git_sha": git_sha(),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "passes": [
            {key: p[key] for key in ("trace_flag", "setup_s", "solve_s", "wall_s", "steal_ticks")}
            for p in passes
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "msi" / "__init__.py").is_file():
        print(f"error: no msi sources under {SRC}", file=sys.stderr)
        return 2
    # build: write the bytecode once, so passes import it whether or not the
    # environment lets the interpreter write bytecode (PYTHONDONTWRITEBYTECODE)
    if not (compileall.compile_dir(SRC, quiet=1) and compileall.compile_dir(BENCH, quiet=1)):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, correct = per_layer(passes)
        if not correct:
            print("error: traced counts differ between passes, or self times do not "
                  "add up to the traced passes", file=sys.stderr)
    else:
        metrics, correct = end_to_end(passes), True
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"run_record": run_record(args, passes)}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
