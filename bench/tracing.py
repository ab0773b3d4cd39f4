"""Opt-in span tracing of the scottish_lab layers, installed from outside.

`install(tracer)` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent) and returns a function
that puts the originals back.  A function is replaced everywhere it is bound
by name -- `dyadic.lp_norm_circle` and `extremal.lp_norm_circle` alike, and
the values of `verify.SUITES` -- so calls between modules are seen as well as
calls from the benchmark.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

LAYERS = ("core", "dyadic", "tensornorm", "mazur", "extremal", "verify", "cli")
# Called once per CSV value: a span each would cost more than the call.
UNWRAPPED = {"core.format_float"}

# Counts taken at the boundary of a call: (tracer, args, kwargs, result).


def _grid_values(tr, args, kwargs, out):
    tr.count("dyadic.grid_values_calls", 1)
    tr.count("dyadic.fft_points", int(out.size))
    tr.count("dyadic.fft_bytes", int(out.nbytes))


def _injective_norm_exact(tr, args, kwargs, out):
    # A model of the walk, computed from the shape, not counted inside it: the
    # walk fixes x_0 and enumerates the other J - 1 signs, Gray-walking the
    # last min(J - 1, tensornorm._SUFFIX_BITS) of them.  Without that width
    # the model no longer applies and gray_steps is left at 0.
    J = int(args[0].entries.shape[0])
    tr.count("tensornorm.sign_vectors", 1 << max(J - 1, 0))
    bits = getattr(importlib.import_module("scottish_lab.tensornorm"), "_SUFFIX_BITS", None)
    if isinstance(bits, int):
        tr.count("tensornorm.gray_steps", (1 << min(max(J - 1, 0), bits)) - 1)


def _injective_norm_search(tr, args, kwargs, out):
    tr.count("tensornorm.search_evaluations", int(out.evaluations))


def _projective_bracket(tr, args, kwargs, out):
    if out.upper > 0:
        tr.gaps.append((out.upper - out.lower) / out.upper)


def _csv_file(tr, args, kwargs, out):
    tr.count("core.csv_bytes", os.path.getsize(args[0]))


def _lp_norm_circle(tr, args, kwargs, out):
    if tr.caller_name() == "extremal.flat_polynomial":
        tr.count("_flat_evals", 1)


def _flat_polynomial_enter(tr):
    return tr.counters.get("_flat_evals", 0)


def _flat_polynomial(tr, args, kwargs, out, start_evals):
    # The first grid evaluation of a call is the starting point; the rest
    # are the descent's candidate flips.
    evals = tr.counters.get("_flat_evals", 0) - start_evals
    tr.count("extremal.descent_evals", max(evals - 1, 0))


AFTER = {
    "dyadic.grid_values": _grid_values,
    "tensornorm.injective_norm_exact": _injective_norm_exact,
    "tensornorm.injective_norm_search": _injective_norm_search,
    "tensornorm.projective_bracket": _projective_bracket,
    "core.read_coeff_csv": _csv_file,
    "core.write_coeff_csv": _csv_file,
    "core.read_matrix_csv": _csv_file,
    "core.write_matrix_csv": _csv_file,
    "dyadic.lp_norm_circle": _lp_norm_circle,
}
AROUND = {"extremal.flat_polynomial": (_flat_polynomial_enter, _flat_polynomial)}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.self_time: dict[str, float] = {}
        self.total_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.gaps: list[float] = []
        self._stack: list[list] = []  # [span index, name, child time]

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def caller_name(self) -> str | None:
        """Innermost open span; in a hook, the span that made the call."""
        return self._stack[-1][1] if self._stack else None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        after = AFTER.get(name)
        enter, around = AROUND.get(name, (None, None))
        name_id = self._name_id(name)
        perf = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, name, 0.0]
            stack.append(frame)
            token = enter(self) if enter else None
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
                self.total_time[name] = self.total_time.get(name, 0.0) + dur
                self.calls[name] = self.calls.get(name, 0) + 1
            if after:
                after(self, args, kwargs, out)
            if around:
                around(self, args, kwargs, out, token)
            return out

        return traced

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def bracket_rel_gap(self) -> float:
        return statistics.median(self.gaps) if self.gaps else 0.0

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans if s is not None],
            "fields": ["name", "start", "end", "parent"],
        }


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"scottish_lab.{layer}") for layer in LAYERS}


def install(tracer: Tracer):
    """Wrap every public layer function wherever it is bound; return undo."""
    import scottish_lab

    mods = layer_modules()
    originals = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if f"{layer}.{attr}" in UNWRAPPED:
                continue
            if obj.__module__ == mod.__name__:
                originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    suites = mods["verify"].SUITES
    for key, fn in suites.items():
        if id(fn) in originals:
            orig = originals[id(fn)][0]
            originals[id(fn)] = (orig, tracer.wrap(f"verify.suite.{key}", orig))

    undo = []
    for ns_owner in [scottish_lab, *mods.values()]:
        ns = vars(ns_owner)
        for attr, obj in list(ns.items()):
            if id(obj) in originals and originals[id(obj)][0] is obj:
                undo.append((ns, attr, obj))
                ns[attr] = originals[id(obj)][1]
    for key, fn in list(suites.items()):
        if id(fn) in originals and originals[id(fn)][0] is fn:
            undo.append((suites, key, fn))
            suites[key] = originals[id(fn)][1]

    def restore():
        for ns, attr, obj in undo:
            ns[attr] = obj

    return restore
