"""In-memory span tracer that wraps the public functions of the shiftlab modules.

The shiftlab modules import each other's functions by name, so wrapping
`measures.measure_of_constraints` alone would miss the calls made from
`entropy` and `sensitivity`. `Tracer.install` therefore replaces the function
in every loaded `shiftlab` module that binds it, and `Tracer.remove` puts the
originals back.

Each call records one span (name, start, end, parent span, item id). A
span's self time is its duration minus the durations of its direct child
spans. Counters that turn into ratios are kept at the same boundary as the
span, from the call's arguments and result.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _window_symbols(fn, args, kwargs, result):
    return _bound(fn, args, kwargs, "hi") - _bound(fn, args, kwargs, "lo") + 1


def _indicator_reads(fn, args, kwargs, result):
    return max(0, _bound(fn, args, kwargs, "hi") - _bound(fn, args, kwargs, "lo"))


# (module, function, {counter: fn(fn, args, kwargs, result) -> amount}).
# A counter whose name ends in "_ratio" is reported over the call count.
LAYERS = (
    ("symbolic", "constraint_atoms", {}),
    ("symbolic", "resolve_constraints", {
        "bridged_ratio": lambda fn, a, k, r: int(r.bridged),
        "empty_ratio": lambda fn, a, k, r: int(r.is_empty),
    }),
    ("symbolic", "diam_of_set", {}),
    ("measures", "measure_of", {}),
    ("measures", "measure_of_constraints", {
        "zero_ratio": lambda fn, a, k, r: int(r == 0),
    }),
    ("measures", "sample_point", {"symbols": _window_symbols}),
    ("measures", "sample_point_in", {"symbols": _window_symbols}),
    ("folner", "orbit_indicator", {"reads": _indicator_reads}),
    ("folner", "density_from_indicator", {}),
    ("folner", "density", {}),
    ("entropy", "sequence_entropy_profile", {}),
    ("entropy", "greedy_entropy_sequence", {}),
    ("entropy", "separation_count", {}),
    ("entropy", "ms_function_test", {}),
    ("entropy", "crosscheck_hms_hap", {}),
    ("independence", "classify_in_pair", {}),
    ("independence", "independence_density_profile", {}),
    ("independence", "e_min_measure", {}),
    ("independence", "ratio_meets", {
        "true_ratio": lambda fn, a, k, r: int(bool(r)),
    }),
    ("independence", "max_independence_subset", {
        "exhaustive_ratio": lambda fn, a, k, r: int(r.exhaustive),
    }),
    ("sensitivity", "find_sensitivity_witnesses", {
        "positive_ratio": lambda fn, a, k, r: int(r.classification == "positive"),
    }),
    ("sensitivity", "equivalence_crosscheck", {}),
    ("sensitivity", "classify_ms_pair", {}),
    ("sensitivity", "classify_diam_pair", {}),
    ("config", "load_config", {}),
    ("harness", "run_experiment", {}),
    ("reports", "render_csv", {}),
    ("reports", "render_json", {}),
)

OVERHEAD_METRIC = "trace.overhead_ratio"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for module, func, counters in LAYERS:
        base = f"{module}.{func}"
        names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s"), (f"{base}.total_s", "s")]
        for counter in counters:
            names.append((f"{base}.{counter}", "ratio" if counter.endswith("_ratio") else "count"))
    names.append((OVERHEAD_METRIC, "ratio"))
    return names


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{func}" for module, func, _ in LAYERS]
        self.item = -1
        # Span columns; `parents` holds the index of the enclosing span or -1.
        self.name_ids = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []
        self._child_time: list[float] = []
        # Per layer: calls, total seconds, self seconds, then one slot per counter.
        self.stats = [[0, 0.0, 0.0] + [0] * len(c) for _, _, c in LAYERS]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: int, fn, counters):
        counter_fns = tuple(counters.values())
        stats = self.stats[layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(layer)
            self.parents.append(self._open[-1] if self._open else -1)
            self.items.append(self.item)
            self.ends.append(0.0)
            self._open.append(index)
            self._child_time.append(0.0)
            start = clock()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.ends[index] = end
                self._open.pop()
                duration = end - start
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
            for slot, count in enumerate(counter_fns, start=3):
                stats[slot] += count(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = [
            getattr(importlib.import_module(f"shiftlab.{module}"), func) for module, func, _ in LAYERS
        ]
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "shiftlab" or name.startswith("shiftlab."))
        ]
        for layer, ((_, _, counters), original) in enumerate(zip(LAYERS, originals)):
            wrapper = self._wrap(layer, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {}
        for (module, func, counters), stats in zip(LAYERS, self.stats):
            base = f"{module}.{func}"
            calls = stats[0]
            values[f"{base}.calls"] = calls
            values[f"{base}.self_s"] = stats[2]
            values[f"{base}.total_s"] = stats[1]
            for slot, counter in enumerate(counters, start=3):
                amount = stats[slot]
                if counter.endswith("_ratio"):
                    amount = amount / calls if calls else 0.0
                values[f"{base}.{counter}"] = amount
        return values

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated rows: id, name, parent, item, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tname\tparent\titem\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t{self.parents[i]}\t"
                    f"{self.items[i]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
