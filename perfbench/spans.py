"""Span tracing around geoflow's public functions, from outside the program.

Tracer.install wraps every public function of the traced modules in every
geoflow namespace that binds it (so `class_iterator` is wrapped both in
`geoflow.spectrum` and in `geoflow.zeta`), and Tracer.uninstall puts the
originals back.  Spans are kept in memory as columns (name, start, end,
parent span, op id) and written out once, when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "spectrum", "zeta", "summation", "rootdata", "specfun")

# Return-value or argument sizes recorded at the span boundary, summed per op.
SIZES = {
    "spectrum.class_iterator": ("spectrum.classes", lambda args, result: len(result)),
    "summation.tree_sum": ("summation.values", lambda args, result: len(args[0])),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.sizes = {}
        self.op_id = -1
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span_name, fn):
        nid = self._name_id(span_name)
        size = SIZES.get(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if size is not None:
                key, measure = size
                self.sizes[key] = self.sizes.get(key, 0) + measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, span_name, fn, *args):
        """Run fn(*args) inside a span of its own (the op span)."""
        return self._wrap(span_name, fn)(*args)

    def install(self, package):
        """Wrap the public functions of the traced modules of `package`."""
        prefix = package.__name__ + "."
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == package.__name__ or k.startswith(prefix))]
        for short in MODULES:
            mod = sys.modules[prefix + short]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._saved.append((ns, key, fn))
                            setattr(ns, key, traced)

    def uninstall(self):
        for ns, key, fn in reversed(self._saved):
            setattr(ns, key, fn)
        self._saved.clear()

    def self_times(self, ops):
        """Per span name: (self seconds, inclusive seconds, calls) over the
        spans of `ops`.  Inclusive time double-counts recursive calls."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        keep = np.isin(np.frombuffer(self.op, dtype=np.int64), np.asarray(ops))
        self_s = np.bincount(name[keep], weights=(dur - child)[keep],
                             minlength=len(self.names))
        incl_s = np.bincount(name[keep], weights=dur[keep], minlength=len(self.names))
        calls = np.bincount(name[keep], minlength=len(self.names))
        return {nm: (float(self_s[i]), float(incl_s[i]), int(calls[i]))
                for i, nm in enumerate(self.names)}

    def write(self, path):
        """All spans as columns of one .npz file, names as an index table."""
        np.savez(path + ".npz",
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64),
                 names=np.array(self.names))
