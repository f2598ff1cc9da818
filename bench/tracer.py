"""Span tracing from outside the package: every public function of every layer
module is replaced by a timing wrapper at each module attribute that refers
to it.

A span records its function, its parent span, and its start and end times.
Spans stay in memory (flat arrays, so millions of them stay cheap) and are
summarised, and optionally written, when the run ends.  A span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

#: The layers of the package, one module each.
LAYERS = ("cli", "fanio", "fan", "fme", "linalg", "czalgebra", "charts", "acs")

#: Modules whose attributes may alias a layer function (re-exports included).
ALIAS_MODULES = ("topfan",) + tuple(f"topfan.{layer}" for layer in LAYERS) + ("topfan.catalog",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # work counters observed at layer boundaries
        self.fme_rows = 0
        self.fme_feasible = 0
        self.failing_axioms = 0
        self.failing_with_witness = 0

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap every public layer function at every alias; returns the count."""
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"topfan.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module_name in ALIAS_MODULES:
            module = importlib.import_module(module_name)
            for name, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(module, name, originals[id(obj)][1])
        return len(originals)

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        observe = {
            "fme.strict_feasible": self._observe_fme,
            "fan.validate": self._observe_validate,
        }.get(qualname)
        stack, fns, parents, starts, ends = self._stack, self.fn, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(fns)
            fns.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_fme(self, args, result) -> None:
        self.fme_rows += len(args[0])
        self.fme_feasible += result is not None

    def _observe_validate(self, args, report) -> None:
        for check in report.checks().values():
            if not check.passed:
                self.failing_axioms += 1
                self.failing_with_witness += check.witness is not None

    # -- summary ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; brackets the spans of one op."""
        return len(self.fn)

    def arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return fn, parent, duration, duration - children

    def counters(self) -> dict[str, int]:
        return {
            "fme_rows": self.fme_rows,
            "fme_feasible": self.fme_feasible,
            "failing_axioms": self.failing_axioms,
            "failing_with_witness": self.failing_with_witness,
        }

    def summary(self, op_ranges: list[tuple[int, int]]) -> dict:
        """Per-function self time, inclusive time and calls over the spans of
        the given ops, and per op the sum of self times and the inclusive time
        of validate and classify."""
        fn, parent, duration, self_time = self.arrays()
        k = len(self.names)
        spans = np.zeros(len(fn), dtype=bool)
        for lo, hi in op_ranges:
            spans[lo:hi] = True
        ids = fn[spans]
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=self_time[spans], minlength=k)
        incl_s = np.bincount(ids, weights=duration[spans], minlength=k)
        functions = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        tracked = {name: self.names.index(name) for name in ("fan.validate", "charts.classify")}
        per_op = []
        for lo, hi in op_ranges:
            entry = {"self_s": float(self_time[lo:hi].sum())}
            for name, i in tracked.items():
                entry[name] = float(duration[lo:hi][fn[lo:hi] == i].sum())
            per_op.append(entry)
        return {"functions": functions, "per_op": per_op, "spans": int(spans.sum())}

    def write(self, path: str) -> None:
        """Write every span (function, parent, start, end) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
