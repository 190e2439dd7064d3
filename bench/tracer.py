"""Outside-in tracing of the package's layers.

The tracer replaces the public functions and methods of each layer module
with wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Names other modules bound with
``from ... import`` are rebound too, otherwise calls made through them
(``cli.classify``, ``cli.verify_central_projection``, ``growth.shortest_rep``)
would escape the trace.  Nothing in the package is edited; ``uninstall``
puts every original back.

Spans are kept in flat integer arrays and reduced with numpy at the end.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Recording costs
a few hundred nanoseconds per call, which is why end-to-end numbers come
only from untraced runs.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from types import FunctionType

import numpy as np

#: Layer modules, in the order their self times are reported.
LAYERS = ("coxeter", "laurent", "hecke", "cosets", "growth", "groupfile",
          "cli")

#: Operator methods traced besides the public names, for the two value
#: types whose arithmetic is a layer's work.  Element's comparisons are
#: left alone: dictionary lookups call them constantly.
OPERATORS = {
    "LaurentPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__neg__", "__pow__", "__eq__"),
    "HeckeElement": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                     "__eq__"),
}

#: LaurentPoly calls that count as ring operations (sub and pow are made
#: of these, so counting them too would count twice).
RING_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__")

#: Work measures taken from a call's result.
OBSERVERS = {
    "coxeter.CoxeterSystem.ball": len,
    "coxeter.CoxeterSystem.ball_with_masks": lambda res: len(res[0]),
    "coxeter.CoxeterSystem.sphere_counts": len,
    "hecke.mul": lambda res: len(res.terms),
    "cosets.shortest_rep": lambda res: int(res.nondegenerate),
}

BLOCK = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [BLOCK]
        self.layer_of: list[int] = [len(LAYERS)]
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")
        self.stack = [-1]
        self.observed: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, span_name: str, layer: int, fn):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        return self._wrapper(nid, fn, OBSERVERS.get(span_name))

    def _wrapper(self, nid: int, fn, observe):
        name, parent, start, end, nested = (self.name, self.parent,
                                            self.start, self.end, self.nested)
        stack, observed = self.stack, self.observed
        span_name = self.names[nid]
        clock = time.perf_counter_ns
        active = [0]

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            nested.append(active[0] > 0)
            end.append(0)
            stack.append(idx)
            active[0] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[0] -= 1
                stack.pop()
            if observe is not None:
                observed[span_name] = (observed.get(span_name, 0)
                                       + observe(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def block(self, fn):
        """Wrap one benchmark operation as a root span."""
        return self._wrapper(0, fn, None)

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import coxhecke  # noqa: F401  (loads every layer module)
        replaced: dict[int, tuple[object, object]] = {}
        for layer, short in enumerate(LAYERS):
            mod = sys.modules[f"coxhecke.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if (isinstance(obj, FunctionType)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrapper = self.wrap(f"{short}.{attr}", layer, obj)
                    replaced[id(obj)] = (obj, wrapper)
                    self._set(mod, attr, wrapper)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(short, layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "coxhecke" and not modname.startswith("coxhecke."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _install_class(self, short: str, layer: int, cls: type):
        operators = OPERATORS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in operators:
                continue
            span_name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr,
                          staticmethod(self.wrap(span_name, layer, raw.__func__)))
            elif isinstance(raw, FunctionType) and \
                    not inspect.isgeneratorfunction(raw):
                self._set(cls, attr, self.wrap(span_name, layer, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction -----------------------------------------------------------

    def metrics(self, probe, wall_s: float,
                untraced_wall_s: float) -> dict[str, tuple]:
        """Per-layer metrics as {name: (value, unit)}.  Span durations are
        normalized by the speed probe that ran during the traced loop, which
        also takes its handler's time out of every span that contains it;
        ``wall_s`` and ``untraced_wall_s`` are normalized loop times."""
        n_spans = len(self.name)
        name, start, end, parent, nested = (
            np.asarray(col, dtype=np.int64) for col in
            (self.name, self.start, self.end, self.parent, self.nested))
        # Every span takes the speed factor of the operation it belongs to,
        # so a parent and its children are scaled alike and self times stay
        # non-negative.  An operation's spans follow its root span.
        start_s, end_s = start * 1e-9, end * 1e-9
        roots = np.flatnonzero(name == 0)
        root_factor = probe.factors(start_s[roots], end_s[roots])
        owner = np.searchsorted(roots, np.arange(n_spans), side="right") - 1
        dur = (end_s - start_s - probe.spent(start_s, end_s)) * \
            root_factor[np.maximum(owner, 0)]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n_spans)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        outer = nested == 0
        inclusive = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_by_name = np.bincount(name, weights=own, minlength=k)
        ids = {n: i for i, n in enumerate(self.names)}

        def count(*names):
            return int(sum(calls[ids[n]] for n in names if n in ids))

        def secs(*names):
            return float(sum(inclusive[ids[n]] for n in names if n in ids))

        def seen(*names):
            return int(sum(self.observed.get(n, 0) for n in names))

        layer_self = np.bincount(np.asarray(self.layer_of)[name], weights=own,
                                 minlength=len(LAYERS) + 1)
        out: dict[str, tuple] = {}
        for i, short in enumerate(LAYERS):
            out[f"{short}.self_s"] = (float(layer_self[i]), "s")

        ball = ("coxeter.CoxeterSystem.ball",
                "coxeter.CoxeterSystem.ball_with_masks")
        out["coxeter.ball_s"] = (secs(*ball), "s")
        out["coxeter.ball_elements"] = (seen(*ball), "count")
        mult_gen = "coxeter.CoxeterSystem.mult_gen"
        out["coxeter.mult_gen_calls"] = (count(mult_gen), "count")
        out["coxeter.mult_gen_s"] = (secs(mult_gen), "s")
        multiply = "coxeter.CoxeterSystem.multiply"
        out["coxeter.multiply_calls"] = (count(multiply), "count")
        out["coxeter.multiply_s"] = (secs(multiply), "s")
        out["coxeter.normalize_calls"] = (
            count("coxeter.CoxeterSystem.normalize"), "count")
        spheres = "coxeter.CoxeterSystem.sphere_counts"
        out["coxeter.sphere_counts_s"] = (secs(spheres), "s")
        out["coxeter.sphere_levels"] = (seen(spheres), "count")

        out["laurent.ops"] = (
            count(*(f"laurent.LaurentPoly.{op}" for op in RING_OPS)), "count")

        out["hecke.mul_calls"] = (count("hecke.mul"), "count")
        out["hecke.mul_s"] = (secs("hecke.mul"), "s")
        out["hecke.terms_out"] = (seen("hecke.mul"), "count")
        out["hecke.action_matrix_s"] = (secs("hecke.action_matrix"), "s")

        out["growth.growth_series_s"] = (secs("growth.growth_series"), "s")
        out["growth.rho_info_s"] = (secs("growth.rho_info"), "s")
        out["growth.classify_s"] = (secs("growth.classify"), "s")
        verify = ids.get("growth.verify_central_projection")
        out["growth.verify_self_s"] = (
            float(self_by_name[verify]) if verify is not None else 0.0, "s")
        out["growth.symbol_check_s"] = (
            secs("growth.check_symbol_commutation",
                 "growth.double_coset_symbol_check"), "s")

        rep = "cosets.shortest_rep"
        reps = count(rep)
        out["cosets.shortest_rep_calls"] = (reps, "count")
        out["cosets.shortest_rep_s"] = (secs(rep), "s")
        out["cosets.nondegenerate_frac"] = (
            seen(rep) / reps if reps else 0.0, "ratio")
        out["cosets.build_gamma_ball_calls"] = (
            count("cosets.build_gamma_ball"), "count")
        out["cosets.coset_elements_s"] = (secs("cosets.coset_elements"), "s")

        out["trace.wall_s"] = (wall_s, "s")
        out["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
        out["trace.spans"] = (n_spans, "count")
        return out
