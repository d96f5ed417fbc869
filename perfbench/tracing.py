"""Span tracer for the benchmark's traced run.

The tracer wraps public rphardy functions from outside the package.  A
function is rebound at every module attribute that holds it, because
``from .x import f`` gives each importing module its own binding, and the
wrappers are removed again by :meth:`Tracer.uninstall`.

Every call of a wrapped function records one span (the function, start, end
and the span that was open when it was called).  Spans stay in memory in
flat arrays until the run ends; :meth:`Tracer.layer_totals` then turns them
into per-layer calls and self time, where self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from array import array

import numpy as np

import rphardy
from rphardy import kernels, measures, modular, numerics, periodize, rpfunc, verify
from rphardy.errors import ToleranceNotReached

MODULES = (rphardy, kernels, measures, modular, numerics, periodize, rpfunc, verify)

# layer -> (defining module, functions of that layer)
LAYERS = {
    "kernels.szego": (kernels, ("szego",)),
    "kernels.poisson": (kernels, ("poisson",)),
    "kernels.bergman": (kernels, ("bergman_strip",)),
    "kernels.power": (kernels, ("power_kernel",)),
    "kernels.h_boundary": (kernels, ("h_boundary",)),
    "kernels.kernel_gram": (kernels, ("kernel_gram",)),
    "numerics.comp_sum": (numerics, ("comp_sum", "comp_sum_real")),
    "numerics.quad": (numerics, ("quad", "quad_real", "oscillatory_ft")),
    "numerics.trapezoid": (numerics, ("trapezoid_circle",)),
    "numerics.gram": (numerics, ("gram_report",)),
    "measures.fourier": (measures, ("fourier",)),
    "measures.transform": (measures, ("atomic", "gridded", "gamma_map", "Gamma_map",
                                      "M_kappa", "Gamma_inverse")),
    "measures.reflection": (measures, ("reflection_check",)),
    "periodize.series": (periodize, ("cosecant_series", "sinh_series", "szego_series",
                                     "bergman_series", "szego_series_split")),
    "rpfunc.gram": (rpfunc, ("pd_gram", "rp_gram", "param_rp_check")),
    "rpfunc.membership": (rpfunc, ("strip_membership",)),
    "modular.build": (modular, ("build_modular",)),
    "modular.coefficient": (modular, ("modular_coefficient",)),
}


class Tracer:
    def __init__(self):
        self.layer_names = list(LAYERS) + ["verify.%s" % g for g in verify.SUITES]
        self.layer_id = {name: j for j, name in enumerate(self.layer_names)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = {"numerics.comp_sum.terms": 0, "numerics.quad.integrand_evals": 0,
                       "numerics.quad.failed": 0, "measures.fourier.nodes": 0,
                       "periodize.series.terms": 0}
        self.tightness: list[float] = []
        self._restore: list[tuple] = []

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        hooks = {"numerics.comp_sum": self._comp_sum_hook,
                 "numerics.quad": self._quad_hook,
                 "measures.fourier": self._fourier_hook,
                 "periodize.series": self._series_hook}
        for layer, (home, names) in LAYERS.items():
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapped = self._wrap(fn, self.layer_id[layer], hooks.get(layer))
                for mod in MODULES:
                    if getattr(mod, fname, None) is fn:
                        self._restore.append((mod, fname, fn))
                        setattr(mod, fname, wrapped)
        for group, checks in verify.SUITES.items():
            self._restore.append((checks, None, list(checks)))
            lid = self.layer_id["verify.%s" % group]
            checks[:] = [self._wrap(c, lid, None) for c in checks]

    def uninstall(self):
        for target, fname, original in reversed(self._restore):
            if fname is None:
                target[:] = original
            else:
                setattr(target, fname, original)
        self._restore.clear()

    def _outermost(self, lid: int) -> bool:
        """True when the span just opened was not called from inside layer lid."""
        stack = self.stack
        return len(stack) < 2 or self.span_layer[stack[-2]] != lid

    def _wrap(self, fn, lid, hook):
        layers, parents, starts, ends = (self.span_layer, self.span_parent,
                                         self.span_start, self.span_end)
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter
        is_quad = lid == self.layer_id["numerics.quad"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            try:
                after = None
                if hook is not None:
                    args, after = hook(lid, args)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except ToleranceNotReached:
                    if is_quad and self._outermost(lid):
                        counts["numerics.quad.failed"] += 1
                    raise
                finally:
                    ends[idx] = clock()
                    starts[idx] = start
                if after is not None:
                    after(result)
                return result
            finally:
                stack.pop()

        return traced

    # -- counters kept at the layer boundaries -----------------------------

    def _comp_sum_hook(self, lid, args):
        values = args[0]
        if not hasattr(values, "__len__"):
            values = list(values)       # both sums materialise iterators anyway
            args = (values,) + args[1:]
        self.counts["numerics.comp_sum.terms"] += int(np.size(values))
        return args, None

    def _quad_hook(self, lid, args):
        if not self._outermost(lid):
            return args, None
        f = args[0]
        counts = self.counts

        def integrand(*a):
            counts["numerics.quad.integrand_evals"] += 1
            return f(*a)

        return (integrand,) + args[1:], None

    def _fourier_hook(self, lid, args):
        nu = args[0]
        nodes = nu.atom_locs.size
        if nu.density is not None:
            nodes += nu.density.size
        self.counts["measures.fourier.nodes"] += nodes
        return args, None

    def _series_hook(self, lid, args):
        self.counts["periodize.series.terms"] += int(args[-1])

        def after(result):
            ev = result[-1] if isinstance(result, tuple) else result
            if ev.tail_bound > 0.0 and math.isfinite(ev.tail_bound):
                self.tightness.append(ev.defect / ev.tail_bound)

        return args, after

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: entries from outside the layer, and self seconds."""
        n = len(self.span_layer)
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.layer_names}
        if n == 0:
            return out
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) \
            - np.frombuffer(self.span_start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        entries = parent_layer != layer
        k = len(self.layer_names)
        calls = np.bincount(layer[entries], minlength=k)
        self_s = np.bincount(layer, weights=own, minlength=k)
        total_s = np.bincount(layer[entries], weights=dur[entries], minlength=k)
        for j, name in enumerate(self.layer_names):
            out[name] = {"calls": int(calls[j]), "self_s": float(self_s[j]),
                         "total_s": float(total_s[j])}
        return out

    def median_tightness(self) -> float:
        return statistics.median(self.tightness) if self.tightness else 0.0
