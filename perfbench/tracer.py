"""Span tracer that times tfloc's layers from outside the package.

``Tracer.install`` wraps public functions of the tfloc modules at every
binding (module attributes and package re-exports, so calls made inside the
package are seen too) and a few methods of its classes; ``Tracer.uninstall``
puts every original object back.  Spans are kept in memory and written as
JSON when the run ends.

A span records its name, start, end, parent span and job id.  Self time is
the span's duration minus the time its child spans cover.
``Symbol1D.__call__`` runs once per quadrature point, so it is timed by a
lean wrapper that only adds to its aggregate and to the parent's child time
and stores no span; ``Atom.eval_time``/``eval_freq`` are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions wrapped as spans named "<module>.<function>"
FUNCTIONS = {
    "operators": ("build_direct", "build_multiplication", "build_integral",
                  "build_pseudodiff", "spectrum", "operator_norm",
                  "verify_equivalence", "filter_signal"),
    "kernels": ("gamma", "overlap_kernel", "weighted_overlap_kernel"),
    "fields": ("analyze", "bargmann", "bargmann_adjoint"),
    "fourier": ("fourier",),
    "algebra": ("commutator_diagnostics", "partition_gammas"),
    "io": ("export_kernel", "export_gamma", "export_cloud",
           "write_signal_csv", "read_signal_csv", "write_json"),
    "cli": ("main",),
}
# (module, class, method) -> span name
METHODS = {
    ("symbols", "SymbolSpec", "evaluate_field"): "symbols.SymbolSpec.evaluate_field",
    ("atoms", "Atom", "ell_matrix"): "atoms.ell_matrix",
}
LEAVES = {("symbols", "Symbol1D", "__call__"): "symbols.Symbol1D"}
COUNTED = {
    ("atoms", "Atom", "eval_time"): "atoms.eval_time",
    ("atoms", "Atom", "eval_freq"): "atoms.eval_freq",
}


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# span-name suffix chosen from the call's arguments
VARIANTS = {
    "kernels.gamma": lambda a, kw: _arg(a, kw, 3, "rule", "grid"),
    "operators.filter_signal": lambda a, kw: _arg(a, kw, 3, "method", "fast"),
}


def _grid_key(grid):
    return None if grid is None else (grid.start, grid.step, grid.count)


def _tfloc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tfloc" or name.startswith("tfloc."))]


class Tracer:
    """In-memory spans plus per-name aggregates (calls, self time, extras)."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[list] = []
        self.agg = defaultdict(lambda: defaultdict(float))
        self.job_id = None
        self._job_keys: set = set()
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def enter(self, name):
        parent = self.stack[-1][3] if self.stack else None
        self.spans.append(None)  # slot filled when the span ends
        frame = [name, time.perf_counter(), 0.0, len(self.spans) - 1, parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        a = self.agg[name]
        a["calls"] += 1
        a["self_s"] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.spans[span_id] = {"id": span_id, "name": name,
                               "start": start - self.t0, "end": end - self.t0,
                               "parent": parent, "job": self.job_id}

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; spans inside it share ``job_id``."""
        self.job_id = job_id
        self._job_keys = set()
        frame = self.enter("bench.job")
        try:
            yield
        finally:
            self.exit(frame)
            self.job_id = None

    # -- extras recorded beside calls and self time --------------------------

    def _extra(self, name, args, kwargs, result):
        a = self.agg[name]
        if name == "operators.build_direct":
            atom, spec = args[0], _arg(args, kwargs, 1, "spec", None)
            key = (atom.case, atom.name, spec.descriptor,
                   _grid_key(_arg(args, kwargs, 2, "xi_grid", None)))
            if key not in self._job_keys:
                self._job_keys.add(key)
                a["distinct"] += 1
        elif name.startswith("io."):
            path = _arg(args, kwargs, 0, "path", None)
            if path is not None and os.path.exists(path):
                a["bytes"] += os.path.getsize(path)
        elif name == "cli.main":
            a["exit_nonzero"] += result != 0

    # -- installation -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        variant = VARIANTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name if variant is None else f"{name}.{variant(args, kwargs)}"
            frame = tracer.enter(full)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if isinstance(exc, SystemExit):   # argparse errors in cli.main
                    tracer.agg[full]["exit_nonzero"] += exc.code not in (0, None)
                raise
            tracer.exit(frame)
            tracer._extra(full, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        a = self.agg[name]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(obj, x):
            t = clock()
            result = fn(obj, x)
            dur = clock() - t
            a["calls"] += 1
            a["self_s"] += dur
            a["points"] += np.size(x)
            if stack:
                stack[-1][2] += dur
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        a = self.agg[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, replacement):
        for mod in _tfloc_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname, names in FUNCTIONS.items():
            mod = sys.modules[f"tfloc.{modname}"]
            for fname in names:
                original = vars(mod)[fname]
                self._replace_everywhere(
                    original, self._span_wrapper(f"{modname}.{fname}", original))
        for table, make in ((METHODS, self._span_wrapper),
                            (LEAVES, self._leaf_wrapper),
                            (COUNTED, self._count_wrapper)):
            for (modname, cls_name, meth), name in table.items():
                cls = getattr(sys.modules[f"tfloc.{modname}"], cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, make(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- read-out -----------------------------------------------------------------

    def self_time_by(self, depth):
        """Self time summed over names cut to their first ``depth`` parts
        (whole names when ``depth`` is None)."""
        out = defaultdict(float)
        for name, a in self.agg.items():
            out[".".join(name.split(".")[:depth])] += a.get("self_s", 0.0)
        return dict(out)

    def write(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {"spans": self.spans,
               "aggregates": {k: dict(v) for k, v in sorted(self.agg.items())},
               **extra}
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
