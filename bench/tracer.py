"""Per-layer spans and counters, recorded around calls into phinabla.

The tracer wraps, for the length of one traced call, the public functions
of each layer module (and the arithmetic methods of PadicNumber and
LaurentElement) in every phinabla namespace that refers to them, so calls
between modules are seen too.  Nothing in ``src/`` is changed.

A layer's self time is the time spent in its wrapped calls minus the time
of the wrapped calls they made.  padic and series calls are counted and
timed but keep no span each, since a rank-4 extraction makes millions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("padic", "series", "linalg", "modules", "extraction",
          "weil_deligne", "diagnostics", "cli")
NO_SPANS = ("padic", "series")
# private functions that are the single entry to a layer's work
ENTRY_POINTS = {"weil_deligne": {"_weights_of": "weights"}}
METHODS = {
    ("padic", "PadicNumber"): (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__truediv__", "__pow__", "inverse", "sigma", "to_fraction",
        "from_rational", "from_poly", "zero"),
    ("series", "LaurentElement"): (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__truediv__", "scale", "shift", "inverse", "sigma", "d_dt", "D",
        "zero", "one", "constant", "monomial", "from_terms"),
    ("modules", "GaugeChange"): ("apply", "compose"),
}


def _laurent_key(x):
    return (x.tail_pos, x.tail_neg,
            tuple(sorted((e, c.v, c.unit, c.abs_prec)
                         for e, c in x.coeffs.items())))


class Tracer:
    def __init__(self):
        self.stats = {}       # key -> [calls, self seconds]
        self.spans = []       # (op, key, start, end, parent span index)
        self.op = None        # name of the operation being traced
        self.kernel_cells = 0
        self.kernel_nnz = 0
        self.kernel_max_cells = 0
        self.section_inputs = set()
        self._child = []      # per open call: seconds spent in wrapped calls
        self._open_spans = []
        self._patches = []

    # -- hooks run before a call, outside every timed interval --------------

    def _kernel_shape(self, args, kwargs):
        rows = args[0]
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self.kernel_cells += cells
        self.kernel_nnz += sum(not x.is_zero() for row in rows for x in row)
        self.kernel_max_cells = max(self.kernel_max_cells, cells)

    def _section_input(self, signature):
        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            m = bound.arguments["m"]
            self.section_inputs.add((
                m.params, bound.arguments["cap"],
                tuple(tuple(_laurent_key(x) for x in row) for row in m.G)))
        return hook

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn, hook=None):
        stat = self.stats.setdefault(key, [0, 0.0])
        child = self._child
        spans = None if key.split(".")[0] in NO_SPANS else self.spans
        open_spans = self._open_spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                t = clock()
                hook(args, kwargs)
                if child:
                    child[-1] += clock() - t
            if spans is not None:
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(len(spans))
                spans.append(None)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                stat[0] += 1
                stat[1] += end - start - inner
                if child:
                    child[-1] += end - start
                if spans is not None:
                    spans[open_spans.pop()] = (self.op, key, start, end,
                                               parent)
        return functools.update_wrapper(wrapper, fn)

    def _targets(self):
        """id(original function) -> (original, replacement)."""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"phinabla.{layer}")
            extra = ENTRY_POINTS.get(layer, {})
            for name, obj in vars(mod).items():
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and name not in extra:
                    continue
                key = f"{layer}.{extra.get(name, name)}"
                hook = None
                if key in ("linalg.field_kernel", "linalg.field_solve"):
                    hook = self._kernel_shape
                elif key == "modules.horizontal_sections":
                    hook = self._section_input(inspect.signature(obj))
                out[id(obj)] = (obj, self._wrap(key, obj, hook))
        return out

    def install(self):
        targets = self._targets()
        for name, mod in list(sys.modules.items()):
            if name != "phinabla" and not name.startswith("phinabla."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(importlib.import_module(f"phinabla.{layer}"),
                          cls_name)
            chosen = {}
            for name in names:
                raw = cls.__dict__[name]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                chosen[id(fn)] = f"{layer}.{cls_name}.{fn.__name__}"
            # aliases such as __radd__ = __add__ share the wrapper
            wrappers = {}
            for attr, raw in list(cls.__dict__.items()):
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if id(fn) not in chosen:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(chosen[id(fn)], fn)
                new = wrappers[id(fn)]
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, classmethod(new) if is_cm else new)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, [0, 0.0])[0]

    def self_seconds(self, key):
        return self.stats.get(key, [0, 0.0])[1]

    def layer(self, layer):
        """(calls, self seconds) summed over a layer's wrapped functions."""
        calls = seconds = 0
        for key, (n, s) in self.stats.items():
            if key.split(".")[0] == layer:
                calls += n
                seconds += s
        return calls, seconds

    def layer_metrics(self):
        calls = self.calls
        own = self.self_seconds
        sections = calls("modules.horizontal_sections")
        return {
            "padic.ops": self.layer("padic")[0],
            "padic.self_s": self.layer("padic")[1],
            "series.ops": self.layer("series")[0],
            "series.self_s": self.layer("series")[1],
            "linalg.field_kernel.calls": calls("linalg.field_kernel"),
            "linalg.field_kernel.self_s": own("linalg.field_kernel"),
            "linalg.field_kernel.max_cells": self.kernel_max_cells,
            "linalg.field_kernel.nnz_frac": (
                self.kernel_nnz / self.kernel_cells
                if self.kernel_cells else 0.0),
            "linalg.field_solve.calls": calls("linalg.field_solve"),
            "linalg.field_solve.self_s": own("linalg.field_solve"),
            "linalg.rref.calls": calls("linalg.rref"),
            "linalg.rref.self_s": own("linalg.rref"),
            "modules.horizontal_sections.calls": sections,
            "modules.horizontal_sections.useful_ratio": (
                len(self.section_inputs) / sections if sections else 1.0),
            "modules.unipotent_filtration.calls":
                calls("modules.unipotent_filtration"),
            "modules.self_s": self.layer("modules")[1],
            "extraction.log_solution_basis.calls":
                calls("extraction.log_solution_basis"),
            "extraction.self_s": self.layer("extraction")[1],
            "weil_deligne.monodromy_filtration.calls":
                calls("weil_deligne.monodromy_filtration"),
            "weil_deligne.monodromy_filtration.self_s":
                own("weil_deligne.monodromy_filtration"),
            "weil_deligne.weights.calls": calls("weil_deligne.weights"),
            "weil_deligne.weights.self_s": own("weil_deligne.weights"),
            "diagnostics.self_s": self.layer("diagnostics")[1],
        }
