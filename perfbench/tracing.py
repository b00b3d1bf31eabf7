"""Spans and counters around ttw4d's public functions, installed from outside.

The tracer replaces each traced function at every name through which it is
called: the module attribute, every other ttw4d module that imported it by
name, and dict entries that hold it (the suite runner table).  Methods are
replaced on their class.  `uninstall` puts every original back.

A span records (id, parent id, name, start, end); a layer's self time is its
spans' durations minus the parts their child spans cover.  The hottest
primitives (Jet construction and multiplication, OmegaPoly multiplication)
get a counter only, because a span per call would dominate the run.
"""
from __future__ import annotations

import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every function that gets a span
SPANNED = (
    ("ttw4d.cli", "run_suite"),
    ("ttw4d.suites", "run_eigen"),
    ("ttw4d.suites", "run_ladders"),
    ("ttw4d.suites", "run_xi"),
    ("ttw4d.suites", "run_algebra"),
    ("ttw4d.suites", "run_m1"),
    ("ttw4d.suites", "run_curvature"),
    ("ttw4d.suites", "run_conformal"),
    ("ttw4d.suites", "run_example211"),
    ("ttw4d.lattice", "xi_action"),
    ("ttw4d.lattice", "check_identity"),
    ("ttw4d.lattice", "M1_minus_action"),
    ("ttw4d.lattice", "window_independence"),
    ("ttw4d.model", "spectral_chain"),
    ("ttw4d.model", "wavefunction"),
    ("ttw4d.diffops", "DiffOperator.apply"),
    ("ttw4d.diffops", "build_example_L1plus"),
    ("ttw4d.diffops", "example211_scalar"),
    ("ttw4d.diffops", "build_h"),
    ("ttw4d.geometry", "curvature_at"),
    ("ttw4d.geometry", "laplace_beltrami"),
    ("ttw4d.geometry", "conformal_identity_check"),
    ("ttw4d.specfun", "jacobi_eval"),
    ("ttw4d.specfun", "laguerre_eval"),
)

# (module, class, method, counter name): counted, no span
COUNTED = (
    ("ttw4d.numcore", "Jet", "__init__", "numcore.Jet.built"),
    ("ttw4d.numcore", "Jet", "__mul__", "numcore.Jet.mul_calls"),
    ("ttw4d.numcore", "Jet", "__rmul__", "numcore.Jet.mul_calls"),
    ("ttw4d.numcore", "OmegaPoly", "__mul__", "numcore.OmegaPoly.mul_calls"),
    ("ttw4d.numcore", "OmegaPoly", "__rmul__", "numcore.OmegaPoly.mul_calls"),
)

# cache keys of the two lru-cached lookups, for the distinct-key ratios
KEYS = {
    "lattice.xi_action": lambda i, sign, params, state: (params, i, sign, tuple(state)),
    "model.spectral_chain": lambda params, state: (params, tuple(state)),
}

# the per-layer metrics, in BENCHMARK.json order: (name, unit, better)
PER_LAYER = (
    tuple((f"suites.run_{s}.self_s", "s", "lower")
          for s in ("xi", "algebra", "m1", "eigen", "ladders", "curvature",
                    "conformal", "example211"))
    + (
        ("cli.run_suite.self_s", "s", "lower"),
        ("lattice.xi_action.calls", "count", "lower"),
        ("lattice.xi_action.self_s", "s", "lower"),
        ("lattice.xi_action.distinct_ratio", "ratio", "higher"),
        ("lattice.check_identity.calls", "count", "lower"),
        ("lattice.check_identity.self_s", "s", "lower"),
        ("lattice.M1_minus_action.calls", "count", "lower"),
        ("lattice.window_independence.self_s", "s", "lower"),
        ("model.spectral_chain.calls", "count", "lower"),
        ("model.spectral_chain.self_s", "s", "lower"),
        ("model.spectral_chain.distinct_ratio", "ratio", "higher"),
        ("model.wavefunction.calls", "count", "lower"),
        ("numcore.OmegaPoly.mul_calls", "count", "lower"),
        ("numcore.Jet.built", "count", "lower"),
        ("numcore.Jet.mul_calls", "count", "lower"),
        ("diffops.DiffOperator.apply.calls", "count", "lower"),
        ("diffops.DiffOperator.apply.self_s", "s", "lower"),
        ("diffops.build_example_L1plus.self_s", "s", "lower"),
        ("diffops.example211_scalar.calls", "count", "lower"),
        ("diffops.build_h.calls", "count", "lower"),
        ("geometry.curvature_at.calls", "count", "lower"),
        ("geometry.curvature_at.self_s", "s", "lower"),
        ("geometry.laplace_beltrami.calls", "count", "lower"),
        ("geometry.conformal_identity_check.self_s", "s", "lower"),
        ("specfun.jacobi_eval.calls", "count", "lower"),
        ("specfun.laguerre_eval.calls", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    )
)


def _short(module: str, path: str) -> str:
    return module.removeprefix("ttw4d.") + "." + path


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id or -1, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.keys = defaultdict(set)
        self._stack = []         # [span id, time covered by child spans]
        self._ids = itertools.count()
        self._undo = []

    def _span(self, name, fn, keyfn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        keys = self.keys[name] if keyfn else None
        clock = time.perf_counter
        ids = self._ids

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(keyfn(*args, **kwargs))
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        """Replace a module or class attribute, or a dict entry, for undo."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ttw4d" or n.startswith("ttw4d.")]
        for modname, path in SPANNED:
            mod = sys.modules[modname]
            name = _short(modname, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._span(name, cls.__dict__[meth], KEYS.get(name)))
                continue
            orig = getattr(mod, path)
            wrapper = self._span(name, orig, KEYS.get(name))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._set(val, k, wrapper)
        for modname, cls_name, meth, name in COUNTED:
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, meth, self._counter(name, cls.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def layer_metrics(self) -> dict:
        """Every per-layer metric but the tracing overhead, from this trace."""
        out = {}
        for metric, _, _ in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self.self_s.get(name, 0.0)
            elif kind == "distinct_ratio":
                calls = self.calls.get(name, 0)
                out[metric] = len(self.keys.get(name, ())) / calls if calls else 0.0
            elif kind == "calls":
                out[metric] = self.calls.get(name, 0)
            elif metric != "trace.overhead_s":
                out[metric] = self.calls.get(metric, 0)   # a COUNTED name
        return out
