"""Span tracer that wraps the library's public functions from outside.

Nothing under ``src/`` changes: while a tracer is installed, each listed
function is replaced by a wrapper in every ``chronotax`` module namespace that
holds it (``verify`` and ``steady_state`` import ``rk4_path``, ``classify``,
``find_fixed_points`` and ``frozen_at`` by name), and methods are replaced on
their class.  The originals come back when the ``with`` block ends.

A span is ``(name, start_ns, end_ns, parent, operation)``; spans live in one
flat ``array('q')`` in memory and are written once, at the end of the run.
Work counts (integrator steps, grid cells, distinct frozen parameter sets)
are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

#: the layers (modules) and the public functions traced in each
TARGETS = {
    "model": ("Schedule.__call__", "Schedule.integral", "field_lab_array"),
    "integrate": ("rk4_path", "em_path", "pullback", "Trajectory.to_rotating"),
    "contraction": ("contraction_map", "sym_eigs_radial"),
    "steady_state": ("find_fixed_points", "classify", "frozen_at", "trace_gamma",
                     "continuation_sweep", "region_map", "attractor_track"),
    "verify": ("offending_intervals", "select_trapping_radius", "verify_trapping",
               "verify_attraction", "verify_invariance", "verify_schedule"),
    "signal": ("cwt", "ridge", "count_slips"),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

_FIELDS = 5  # name, start, end, parent, operation


def _steps(bound, result):
    return {"steps": bound.arguments["times"].size - 1}


def _cells(attr):
    return lambda bound, result: {"cells": getattr(result, attr).size}


def _cwt(bound, result):
    return {"rows": result.magnitude.shape[0], "cells": result.magnitude.size}


def _events(bound, result):
    return {"events": len(result)}


#: work counted at a boundary, from the call's arguments and result
COUNTERS = {
    "integrate.rk4_path": _steps,
    "integrate.em_path": _steps,
    "steady_state.region_map": _cells("codes"),
    "contraction.contraction_map": _cells("classes"),
    "signal.cwt": _cwt,
    "signal.count_slips": _events,
}
#: calls whose frozen parameter set is recorded, to count repeated work
DISTINCT = ("steady_state.classify", "steady_state.find_fixed_points")


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.stack = [-1]
        self.operation = -1
        self.counts: dict[str, int] = {}
        self.seen: dict[str, set] = {name: set() for name in DISTINCT}

    # --- installing the wrappers ---

    def _wrap(self, name, fn):
        name_id = NAMES.index(name)
        counter = COUNTERS.get(name)
        distinct = self.seen.get(name)
        signature = inspect.signature(fn) if counter or distinct is not None else None
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((name_id, 0, 0, stack[-1], self.operation))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx * _FIELDS + 1] = start
                spans[idx * _FIELDS + 2] = end
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if distinct is not None:
                    distinct.add(bound.arguments["fp"])
                if counter is not None:
                    for key, n in counter(bound, result).items():
                        full = f"{name}.{key}"
                        self.counts[full] = self.counts.get(full, 0) + n
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        undo = []
        try:
            for layer, fns in TARGETS.items():
                module = importlib.import_module(f"chronotax.{layer}")
                for fn_name in fns:
                    name = f"{layer}.{fn_name}"
                    if "." in fn_name:
                        cls_name, attr = fn_name.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[attr]
                        undo.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(name, original))
                        continue
                    original = getattr(module, fn_name)
                    wrapper = self._wrap(name, original)
                    for mod in list(sys.modules.values()):
                        if (getattr(mod, "__name__", "").startswith("chronotax")
                                and getattr(mod, fn_name, None) is original):
                            undo.append((mod, fn_name, original))
                            setattr(mod, fn_name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # --- reading the spans ---

    def begin_pass(self) -> int:
        """Clear the work counts; return the index of the next span for :meth:`summary`."""
        self.counts.clear()
        for keys in self.seen.values():
            keys.clear()
        return len(self.spans) // _FIELDS

    def table(self, first: int = 0) -> np.ndarray:
        """Spans from index ``first`` as an (n, 5) int64 view.

        Drop the view before the next traced call: ``spans`` cannot grow while
        it is exported."""
        view = np.frombuffer(self.spans, dtype=np.int64, offset=first * _FIELDS * 8)
        return view.reshape(-1, _FIELDS)

    def summary(self, first: int) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds of the spans from ``first``,
        with the work counts and ratios gathered since :meth:`begin_pass`."""
        rows = self.table(first)
        names = rows[:, 0]
        dur = (rows[:, 2] - rows[:, 1]).astype(float) * 1e-9
        parent = rows[:, 3] - first
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=rows.shape[0])
        calls = np.bincount(names, minlength=len(NAMES))
        incl = np.bincount(names, weights=dur, minlength=len(NAMES))
        own = np.bincount(names, weights=dur - child, minlength=len(NAMES))
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{name}.self_s"] = float(own[i])
        counts = self.counts
        for name in ("integrate.rk4_path", "integrate.em_path"):
            steps = counts.get(f"{name}.steps", 0)
            out[f"{name}.steps"] = steps
            out[f"{name}.steps_per_s"] = _rate(steps, out[f"{name}.s"])
        for name in DISTINCT:
            out[f"{name}.distinct_frac"] = _rate(len(self.seen[name]), out[f"{name}.calls"])
        for name in ("steady_state.region_map", "contraction.contraction_map"):
            out[f"{name}.cells_per_s"] = _rate(counts.get(f"{name}.cells", 0),
                                               out[f"{name}.s"])
        out["signal.cwt.rows"] = counts.get("signal.cwt.rows", 0)
        out["signal.cwt.cells_per_s"] = _rate(counts.get("signal.cwt.cells", 0),
                                              out["signal.cwt.s"])
        out["signal.count_slips.events"] = counts.get("signal.count_slips.events", 0)
        return out

    def save(self, path) -> None:
        np.savez(path, spans=self.table(), names=np.array(NAMES))


def _rate(num, den):
    return float(num) / den if den > 0 else 0.0
