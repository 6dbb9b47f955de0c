"""In-memory span tracing of otbary's public layers, from outside the library.

:class:`Tracer` wraps each function of :data:`LAYERS` at every module
attribute where callers look it up (the defining module and every module that
imported the name), so the library itself is left untouched.  Each call
records a span ``(name, start, end, parent)`` and, for a few functions, counts
read from the arguments and the result.  A name that does not exist at the
traced commit is reported with zero calls and the run goes on.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _transport_counts(args, kwargs, result):
    n, m = _arg(args, kwargs, 0, "cost").shape
    return {"cells": n * m, "plan_nonzeros": int((result.plan != 0).sum())}


def _lp_counts(args, kwargs, result):
    rows, cols = _arg(args, kwargs, 1, "A").shape
    # Size of the dense constraint matrix handed to the solver, computed from
    # its shape as 8 bytes per entry, not measured.
    return {
        "pivots": int(result.iterations),
        "rows": rows,
        "cols": cols,
        "matrix_mb": 8.0 * rows * cols / 1e6,
    }


def _frechet_counts(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "nonconverged": int(not result.converged),
    }


def _multimarginal_counts(args, kwargs, result):
    return {"columns": math.prod(result.shape), "entries": len(result.entries)}


# (module, function, derived counts) in report order.
LAYERS = [
    ("cli", "main", None),
    ("spaces", "pairwise_distances", None),
    ("measures", "merge_atoms", None),
    ("measures", "sample_empirical", None),
    ("transport", "solve_transport", _transport_counts),
    ("simplex", "solve_lp", _lp_counts),
    ("frechet", "frechet_mean", _frechet_counts),
    ("multimarginal", "solve_multimarginal", _multimarginal_counts),
    ("multimarginal", "pushforward_barycenter", None),
    ("barycenter", "barycenter_finite", None),
    ("barycenter", "barycenter_fixed_support", None),
    ("consistency", "ensemble_distance", None),
    ("consistency", "run_experiment", None),
    ("deformations", "draw_deformations", None),
]

COUNT_NAMES = {
    "solve_transport": ("cells", "plan_nonzeros"),
    "solve_lp": ("pivots", "rows", "cols", "matrix_mb"),
    "frechet_mean": ("iterations", "nonconverged"),
    "solve_multimarginal": ("columns", "entries"),
}

OP_SPAN = "op"


class Tracer:
    """Span recorder; spans live in memory until :meth:`summary` or
    :meth:`dump` reads them."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.uncounted: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name_id: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name_id, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent)

    def op_id(self) -> int:
        return self._name_id(OP_SPAN)

    def _wrap(self, qualname, original, counter):
        name_id = self._name_id(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name_id, original, *args, **kwargs)
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    # A later signature or result type: keep the span, lose
                    # the counts, and say so in the trace file.
                    tracer.uncounted.add(qualname)
                    counts = {}
                for key, value in counts.items():
                    full = f"{qualname}.{key}"
                    tracer.counts[full] = tracer.counts.get(full, 0) + value
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", qualname)
        return wrapper

    def install(self) -> None:
        """Replace every layer function wherever ``otbary`` modules hold it."""
        for module_name, func_name, counter in LAYERS:
            qualname = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"otbary.{module_name}")
                original = getattr(module, func_name)
            except (ImportError, AttributeError):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "otbary" or mod_name.startswith("otbary.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def summary(self, cycles: int) -> dict[str, float]:
        """Per-cycle calls, self seconds and counts of every layer, plus the
        time of operations spent outside all layers."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for k, (name_id, start, end, _parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[k]
        out: dict[str, float] = {}
        for module_name, func_name, _counter in LAYERS:
            qualname = f"{module_name}.{func_name}"
            out[f"{qualname}.calls"] = calls.get(qualname, 0) / cycles
            out[f"{qualname}.self_s"] = self_s.get(qualname, 0.0) / cycles
            for key in COUNT_NAMES.get(func_name, ()):
                out[f"{qualname}.{key}"] = self.counts.get(f"{qualname}.{key}", 0) / cycles
        out["trace.unattributed_s"] = self_s.get(OP_SPAN, 0.0) / cycles
        return out

    def dump(self, fh) -> None:
        """Write the spans as JSON lines: a header with the name table, then
        one ``[name, start, end, parent]`` list per span."""
        header = {
            "names": self.names,
            "missing": self.missing,
            "uncounted": sorted(self.uncounted),
        }
        fh.write(json.dumps(header) + "\n")
        for name_id, start, end, parent in self.spans:
            fh.write(f"[{name_id},{start:.9f},{end:.9f},{parent}]\n")
