"""One benchmark pass in a fresh interpreter; prints one JSON line.

run.py starts this script once per pass, so every pass sees cold lru
caches, as every `msi` command does. --spawned is run.py's perf_counter
reading just before the process was started (the clock is system-wide),
which makes setup_s cover interpreter start, `import msi` and input
building.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads

REFS = Path(__file__).resolve().parent / "refs.json"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    import msi.cli  # noqa: F401  (loads every msi module before tracing)
    import numpy

    refs = json.loads(REFS.read_text())
    recorder = None
    if args.trace:
        from spans import PASS, SETUP, Recorder

        recorder = Recorder()
        recorder.install()
        inputs = recorder.span(SETUP, workloads.build, args.workload, args.seed)
        outputs, op_s, solve_s = recorder.span(PASS, workloads.solve, args.workload, inputs)
    else:
        inputs = workloads.build(args.workload, args.seed)
        ready = perf_counter()
        outputs, op_s, solve_s = workloads.solve(args.workload, inputs)
    attempted, failed = workloads.check(args.workload, outputs, refs)
    print(json.dumps({
        "setup_s": None if args.trace else ready - args.spawned,
        "solve_s": solve_s,
        "op_s": op_s,
        "items": workloads.items(args.workload, inputs),
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "trace": recorder.report() if recorder else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
