"""In-memory span recorder wrapped around gridshare's public functions.

The wrappers are installed from outside the package: every module-level
reference to a wrapped function, in every loaded `gridshare` module, is
replaced, so calls across module boundaries (cli -> mrss, budget -> grid)
are recorded without editing the package.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List

# Public functions per layer (module), as named in the benchmark README.
WRAPPED = {
    "scenario": ("parse_scenario", "emit_scenario"),
    "grid": ("make_grid", "count_labels"),
    "lte": ("apply_lte",),
    "nr": ("apply_nr",),
    "budget": ("dss_table", "nr_overhead"),
    "mrss": ("classify_mrss", "reserve_iot", "place_6g_ssb", "simulate",
             "neighbor_interference"),
    "cli": ("build_grid", "run_budget", "run_overhead", "run_classify", "run_simulate",
            "run_interference", "run_sweep", "main"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)


def _cells_in(args, kwargs, result):
    return {"cells": int(args[0].n_cells)}


def _cells_out(args, kwargs, result):
    return {"cells": int(result.n_cells)}


def _slots(args, kwargs, result):
    return {"slots": len(result.grants_5g)}


def _grid_key(args, kwargs, result):
    s = args[0]
    return {"key": hash((s.carrier, s.lte, s.nr))}


# Attributes each span carries, read from the call after its end time.
ATTRS: Dict[str, Callable] = {
    "grid.make_grid": _cells_out,
    "lte.apply_lte": _cells_in,
    "mrss.simulate": _slots,
    "cli.build_grid": _grid_key,
}


class Recorder:
    """Spans of one process: name, start/end ns, parent index, request id."""

    def __init__(self, request: str):
        self.request = request
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1,
                    "request": self.request, "error": False}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every reference to each wrapped function in gridshare."""
        import gridshare.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gridshare" or n.startswith("gridshare."))]
        for layer, names in WRAPPED.items():
            owner = sys.modules[f"gridshare.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def self_times(spans: List[dict]) -> List[int]:
    """Each span's duration minus the time its direct child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


class LayerTotals:
    """Self time, calls, errors and attributes summed per span name.

    Takes one span list per request; parent indices are local to a list.
    """

    def __init__(self, requests: List[List[dict]]):
        self.self_ns: Dict[str, int] = {n: 0 for n in SPAN_NAMES}
        self.calls: Dict[str, int] = {n: 0 for n in SPAN_NAMES}
        self.errors: Dict[str, int] = {n: 0 for n in SPAN_NAMES}
        self.attr: Dict[str, Dict[str, int]] = {n: {} for n in SPAN_NAMES}
        self.distinct_keys = 0
        for spans in requests:
            keys = set()
            for span, own in zip(spans, self_times(spans)):
                name = span["name"]
                self.self_ns[name] += own
                self.calls[name] += 1
                self.errors[name] += int(span["error"])
                for k in ("cells", "slots"):
                    if k in span:
                        self.attr[name][k] = self.attr[name].get(k, 0) + span[k]
                if "key" in span:
                    keys.add(span["key"])
            self.distinct_keys += len(keys)

    def ms(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e6

    def total(self, name: str, attr: str) -> int:
        return self.attr[name].get(attr, 0)
