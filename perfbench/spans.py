"""Outside-in span recorder for a traced pass.

Each layer function is replaced, in every loaded msi module that holds it,
by a wrapper that records a span (name, start, end, parent). Replacing it
at every module attribute matters because callers import by name: for
example msi.integral calls its own binding of spaced_pair_partition, so
wrapping only msi.farey.spaced_pair_partition would miss every call.
Spans stay in memory; the pass reports their per-layer totals at the end.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (layer name, defining module, attribute): every layer timed from outside
LAYERS = (
    ("cli.main", "msi.cli", "main"),
    ("integral.majorant_compare", "msi.integral", "majorant_compare"),
    ("integral.selberg_integral_decomposed", "msi.integral", "selberg_integral_decomposed"),
    ("integral.selberg_integral_direct", "msi.integral", "selberg_integral_direct"),
    ("integral.diagonal_term", "msi.integral", "diagonal_term"),
    ("farey.spaced_pair_partition", "msi.farey", "spaced_pair_partition"),
    ("farey.farey_enumerate", "msi.farey", "farey_enumerate"),
    ("spectral.ramanujan_coefficient", "msi.spectral", "ramanujan_coefficient"),
    ("arith.preset_table", "msi.arith", "preset_table"),
)
SETUP, PASS = "bench.setup", "bench.pass"  # root spans of a traced pass
ROOTS = (SETUP, PASS)

# lru caches read through cache_info(): (counter prefix, module, attribute)
CACHES = (
    ("integral.x_sum", "msi.integral", "_x_sum"),
    ("spectral.coefficient", "msi.spectral", "_coefficient_value"),
    ("farey.farey_enumerate", "msi.farey", "farey_enumerate"),
)
PAIR_COUNTERS = tuple(
    f"farey.pairs.{side}_{mode}"
    for mode in ("difference", "wrapped_sum")
    for side in ("near", "far")
)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: dict[str, object] = {}

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the span is closed even when fn raises."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            counts[f"{name}.calls"] += 1
            if observe is not None:
                observe(counts, result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer at every loaded msi module attribute bound to it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "msi" or k.startswith("msi.")]
        for name, mod_name, attr in LAYERS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            self._originals[name] = original
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def report(self) -> dict:
        """Per-layer self seconds, root seconds, and exact counters."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
        root_s = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        counts = {f"{name}.calls": 0 for name, _, _ in LAYERS}
        counts.update({key: 0 for key in (*PAIR_COUNTERS, "farey.fractions")})
        counts.update(self.counts)
        for prefix, mod_name, attr in CACHES:
            fn = self._originals.get(prefix, getattr(sys.modules.get(mod_name), attr, None))
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            counts[f"{prefix}.hits"] = info.hits if info else 0
            counts[f"{prefix}.misses"] = info.misses if info else 0
        return {"self_s": dict(self_s), "root_s": root_s, "counts": counts}


def _observe_partition(counts, partition, args) -> None:
    counts[f"farey.pairs.near_{partition.mode}"] += len(partition.near)
    counts[f"farey.pairs.far_{partition.mode}"] += len(partition.far)
    if partition.mode == "difference":
        counts["farey.fractions"] += len(args[0])


_OBSERVERS = {"farey.spaced_pair_partition": _observe_partition}
