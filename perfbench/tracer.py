"""Span tracing of fredk2 from outside the package.

``Tracer.install`` replaces every public function and every public method
of a public class defined in a traced fredk2 module with a wrapper that
records a span, and rebinds every name other fredk2 modules imported with
``from ... import`` to the same wrapper (``invariants.det1p`` is traced as
``fredholm.det1p``).  The dense kernels in ``KERNELS`` are wrapped in
their own namespaces, so ``np.linalg.inv(...)`` inside fredk2 is seen.
``uninstall`` puts every original object back, so function identities
after it are exactly those before ``install``.

Only calls *into* a layer open a span: a call whose caller is a span of
the same layer runs unrecorded and its time stays in the caller's self
time, unless the callee is one of the ``NAMED`` functions or a kernel,
which are always recorded.  So ``group_homology.bar_boundary`` counts
every call, while ``FiniteGroup.op`` inside it costs no span.

Spans are kept in memory as rows ``(name, start, end, parent, op)`` and
written out only at the end of a run.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in one thread, so children never overlap.

Code that holds a fredk2 function in its own namespace (``from
fredk2.invariants import det1p`` in a benchmark file) bypasses the
wrappers; the benchmark calls fredk2 through module attributes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("fourier_loops", "toeplitz_calculus", "fredholm", "cyclic_chains",
          "group_homology", "invariants")

KERNELS = {
    "scipy.linalg": ("expm", "lu_factor"),
    "numpy.linalg": ("inv", "det", "solve", "norm"),
}

# Per-call quantities measured at a span boundary: span name ->
# (suffix, fn(args, result) -> number).
PROBES = {
    "fourier_loops.log_split": ("out_band", lambda args, res: res.log_part.band),
    "group_homology.smith_normal_form": ("cells", lambda args, res: np.size(args[0])),
}

# Functions reported one by one, per layer.
NAMED = {
    "fourier_loops": ("log_split", "fit_grid_values", "FourierLoop.mul", "FourierLoop.exp"),
    "toeplitz_calculus": ("ToeplitzOp.mul", "ToeplitzOp.exp", "ToeplitzOp.inv"),
    "fredholm": ("det1p", "mult_commutator_det", "path_log_det"),
    "cyclic_chains": ("gamma_log", "tilde_gamma", "tau_cocycle"),
    "group_homology": ("boundary_matrix", "smith_normal_form", "bar_boundary"),
    "invariants": ("det_invariant_operator", "w0_representative",
                   "h2_representative_det", "SteinbergSymbol.from_loops"),
}

WRAPPED = "__perfbench_span__"


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []          # span name per name index
        self._name_index = {}
        self.spans = []          # (name index, start, end, parent row, op)
        self.probes = {}         # "name.suffix" -> list of values
        self.op = -1
        self.recording = False   # spans are taken only while True
        self._stack = []         # (span row, layer) of the open spans
        self._patches = []       # (owner, attribute, original object)

    # -- installation ----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}           # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module("fredk2." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._patch_class(obj, layer, name)
        for modname, attrs in KERNELS.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                obj = getattr(mod, attr)
                originals[id(obj)] = self._wrap(obj, f"{modname}.{attr}", None)
                self._patch(mod, attr, originals[id(obj)])
        for modname, mod in list(sys.modules.items()):
            if modname != "fredk2" and not modname.startswith("fredk2."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, cls, layer, cls_name):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls_name}.{name}"
            if inspect.isfunction(obj):
                self._patch(cls, name, self._wrap(obj, layer, qual))
            elif isinstance(obj, (staticmethod, classmethod)):
                self._patch(cls, name, type(obj)(self._wrap(obj.__func__, layer, qual)))

    def _wrap(self, fn, layer, qual):
        """Wrapper recording span ``layer.qual``; a kernel has ``qual``
        None and is its own layer."""
        name = layer if qual is None else f"{layer}.{qual}"
        always = qual is None or qual in NAMED.get(layer, ())
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording or (not always and stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            row = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((row, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[row] = (idx, start, end, parent, self.op)
            if probe is not None:
                key = f"{name}.{probe[0]}"
                self.probes.setdefault(key, []).append(probe[1](args, result))
            return result

        setattr(wrapper, WRAPPED, name)
        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: [calls, self seconds, inclusive seconds]."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for row, (idx, start, end, _parent, _op) in enumerate(self.spans):
            acc = out.setdefault(self.names[idx], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start - child[row]
            acc[2] += end - start
        return out

    def per_layer(self, ops):
        """Per-layer metrics, each averaged over ``ops`` ops, as
        {name: (value, unit)}."""
        totals = self.totals()
        out = {}

        def span(name):
            calls, self_s, _incl = totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / ops, "calls/op")
            out[f"{name}.self_s"] = (self_s / ops, "s/op")

        for layer, fns in NAMED.items():
            out[f"{layer}.self_s"] = (sum(s for name, (_c, s, _i) in totals.items()
                                          if name.startswith(layer + ".")) / ops, "s/op")
            for fn in fns:
                span(f"{layer}.{fn}")
            if layer == "fourier_loops":
                bands = self.probes.get("fourier_loops.log_split.out_band", [])
                out["fourier_loops.log_split.out_band.mean"] = (
                    sum(bands) / len(bands) if bands else 0.0, "band")
            elif layer == "group_homology":
                cells = self.probes.get("group_homology.smith_normal_form.cells", [])
                out["group_homology.smith_normal_form.cells"] = (sum(cells) / ops, "cells/op")
        for modname, attrs in KERNELS.items():
            for attr in attrs:
                span(f"{modname}.{attr}")
        return out

    def save(self, path):
        """Write the spans as a compressed numpy archive: ``names`` and one
        array per column (``name`` indexes ``names``; ``parent`` is a row
        index, -1 for a root span), plus ``probe:<name>`` per probe."""
        cols = list(zip(*self.spans)) or [(), (), (), (), ()]
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.array(cols[0], dtype=np.int32), start=np.array(cols[1], dtype=float),
            end=np.array(cols[2], dtype=float), parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int64),
            **{f"probe:{k}": np.array(v, dtype=float) for k, v in self.probes.items()})


def find_wrappers():
    """Names of every tracing wrapper still reachable from fredk2 modules,
    their classes, or the kernel namespaces."""
    found = []
    owners = [mod for name, mod in sys.modules.items()
              if name == "fredk2" or name.startswith("fredk2.")]
    owners += [sys.modules[m] for m in KERNELS if m in sys.modules]
    for owner in owners:
        for name, obj in vars(owner).items():
            if inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    val = getattr(val, "__func__", val)
                    if hasattr(val, WRAPPED):
                        found.append(f"{owner.__name__}.{name}.{attr}")
            elif hasattr(obj, WRAPPED):
                found.append(f"{owner.__name__}.{name}")
    return found
