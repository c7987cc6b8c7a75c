"""Per-layer tracing of the bladegauge library, applied from outside it.

The CLI and the library import names with ``from .x import name``, so a
function has one binding in its defining module and one more in every module
that imported it.  `Tracer.install` wraps each public function of every layer
at all of its bindings, the public methods of the layer's classes (plus
``FieldFn.__call__``), ``numpy.linalg.eigh`` and the library's exception base
class.  `Tracer.uninstall` puts every original back, so untraced and traced
ops run the same code.

Spans (name, start, end, parent, op id) are kept in flat arrays while ops run
and are written out once, by `Tracer.write_spans`, when the run ends.  A layer's
self time is the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "bladegauge"
LAYERS = ("cli", "scenarios", "fields", "gauge", "blade", "em", "darboux",
          "embedded", "dynamics", "linalg", "errors")

RESIDUAL_EVALUATORS = ("dynamics.ym_residual", "dynamics.modified_eom_residual",
                       "dynamics.maxwell_mod_residual",
                       "dynamics.shape_gauge_ym_residual",
                       "dynamics.sigma_eom_residual")

# metric name -> (unit, wrap targets it needs); a tuple inside the targets
# lists alternatives, any one of which is enough
PER_LAYER = {
    "linalg.eigh_matrices": ("count/op", ("numpy.linalg.eigh",)),
    "linalg.eigh_calls": ("count/op", ("numpy.linalg.eigh",)),
    "linalg.eigh_distinct_inputs": ("count/op", ("numpy.linalg.eigh",)),
    "linalg.eigh_distinct_ratio": ("ratio", ("numpy.linalg.eigh",)),
    "linalg.unitary_exp_calls": ("count/op", ("linalg.unitary_exp",)),
    "linalg.unitary_exp_frechet_calls": ("count/op", ("linalg.unitary_exp_frechet",)),
    "linalg.self_s": ("s/op", ("linalg",)),
    "fields.value_calls": ("count/op", ("fields.FieldFn.__call__",)),
    "fields.deriv_calls": ("count/op", ("fields.FieldFn.d", "fields.FieldFn.d2")),
    "fields.fd1_stencils": ("count/op", ("fields.FieldFn.d",)),
    "fields.fd2_stencils": ("count/op", ("fields.FieldFn.d2",)),
    "fields.quadrature_s": ("s/op", (("fields.sphere_flux", "fields.lattice_integral"),)),
    "fields.self_s": ("s/op", ("fields",)),
    "blade.self_s": ("s/op", ("blade",)),
    "blade.complement_calls": ("count/op", ("blade.complement_frame",)),
    "gauge.self_s": ("s/op", ("gauge",)),
    "em.self_s": ("s/op", ("em",)),
    "darboux.self_s": ("s/op", ("darboux",)),
    "embedded.self_s": ("s/op", ("embedded",)),
    "dynamics.residual_point_s": ("s/point", (RESIDUAL_EVALUATORS,)),
    "dynamics.flow_step_s": ("s/step", ("dynamics.sigma_flow",
                                        "dynamics.sigma_lattice_gradient")),
    "dynamics.gradient_s": ("s/op", ("dynamics.sigma_lattice_gradient",)),
    "dynamics.energy_s": ("s/op", ("dynamics.sigma_lattice_energy",)),
    "dynamics.site_update_s": ("s/step", ("dynamics.sigma_flow",
                                          "dynamics.sigma_lattice_gradient")),
    "dynamics.lattice_build_s": ("s/op", ("dynamics.blade_lattice_from_field",)),
    "scenarios.validate_s": ("s/op", ("scenarios.validate_config",)),
    "scenarios.load_s": ("s/op", (("scenarios.load_frame", "scenarios.load_potential"),)),
    "cli.self_s": ("s/op", ("cli",)),
    "errors.raised": ("count/op", ("errors.BladeGaugeError",)),
    "errors.warnings": ("count/op", ()),
    "trace.overhead_frac": ("ratio", ()),
}

# counts compared per op kind against the stored sentinels
COUNT_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count/op")


class Tracer:
    """Wraps the library from outside and records spans and counts per op."""

    def __init__(self):
        self.names = []           # span name id -> "layer.qualname"
        self._name_ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.span_names = array("i")
        self.span_ops = array("i")
        self._stack = [-1]
        self.op = -1
        self.op_kinds = []        # op id -> kind label
        self.counts = []          # op id -> Counter
        self._distinct = set()
        self._undo = []
        self.found = set()        # wrap targets that exist in this tree

    # -- ops -------------------------------------------------------------------

    def begin_op(self, kind):
        self.op += 1
        self.op_kinds.append(kind)
        self.counts.append(Counter())
        self._distinct = set()

    def end_op(self, warnings_seen):
        c = self.counts[self.op]
        c["eigh_distinct_inputs"] = len(self._distinct)
        c["warnings"] = warnings_seen
        self._distinct = set()

    # -- installing wrappers -----------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            self.found.add(layer)
        loaded = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap_function(layer, attr, obj, loaded)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        self._wrap_eigh()
        self._wrap_errors(modules.get("errors"))

    def uninstall(self):
        for target, attr, original, existed in reversed(self._undo):
            if existed:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._undo = []

    def _patch(self, target, attr, value):
        existed = attr in vars(target)
        self._undo.append((target, attr, vars(target).get(attr), existed))
        setattr(target, attr, value)

    def _wrap_function(self, layer, attr, fn, loaded):
        name = f"{layer}.{attr}"
        self.found.add(name)
        wrapper = self._span_wrapper(name, fn)
        for mod in loaded:
            for binding, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, binding, wrapper)

    def _wrap_class(self, layer, cls):
        for attr, fn in sorted(vars(cls).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr != "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self.found.add(name)
            hook = None
            if name == "fields.FieldFn.d":
                hook = self._fd_hook("deriv", "fd1_stencils")
            elif name == "fields.FieldFn.d2":
                hook = self._fd_hook("deriv2", "fd2_stencils")
            self._patch(cls, attr, self._span_wrapper(name, fn, hook))

    def _fd_hook(self, analytic_attr, key):
        def hook(args):
            if getattr(args[0], analytic_attr) is None:
                self.counts[self.op][key] += 1
        return hook

    def _span_wrapper(self, name, fn, hook=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        starts, ends, parents = self.starts, self.ends, self.parents
        span_names, span_ops, stack = self.span_names, self.span_ops, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(starts)
            span_names.append(name_id)
            span_ops.append(tracer.op)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_eigh(self):
        linalg = np.linalg
        original = linalg.eigh
        tracer = self

        def eigh(a, *args, **kwargs):
            arr = np.asarray(a)
            mats = arr.reshape((-1,) + arr.shape[-2:])
            c = tracer.counts[tracer.op]
            c["eigh_calls"] += 1
            c["eigh_matrices"] += len(mats)
            key = (arr.shape[-2:], arr.dtype.str)
            for m in mats:
                tracer._distinct.add((key, m.tobytes()))
            return original(a, *args, **kwargs)

        self.found.add("numpy.linalg.eigh")
        self._patch(linalg, "eigh", eigh)

    def _wrap_errors(self, errors):
        base = getattr(errors, "BladeGaugeError", None)
        if base is None:
            return
        self.found.add("errors.BladeGaugeError")
        original = base.__init__
        tracer = self

        def __init__(exc, *args, **kwargs):
            tracer.counts[tracer.op]["errors_raised"] += 1
            original(exc, *args, **kwargs)

        self._patch(base, "__init__", __init__)

    # -- reading the trace -----------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays (views of the recording buffers)."""
        return {"start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64),
                "parent": np.frombuffer(self.parents, dtype=np.int32),
                "name": np.frombuffer(self.span_names, dtype=np.int32),
                "op": np.frombuffer(self.span_ops, dtype=np.int32)}

    def write_spans(self, path):
        """Write every span, the span names and the op kinds to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            op_kinds=np.array(self.op_kinds), **self.arrays())

    def summarize(self):
        """One record per op: counts, span calls, self time per layer, inclusive times."""
        a = self.arrays()
        n, n_names, n_ops = len(a["start"]), len(self.names), self.op + 1
        dur = a["end"] - a["start"]
        parent, name = a["parent"], a["name"]
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        key = a["op"] * np.int32(n_names) + name
        size = n_ops * n_names

        def by_op_and_name(weights=None, mask=slice(None)):
            w = None if weights is None else weights[mask]
            return np.bincount(key[mask], weights=w, minlength=size).reshape(n_ops, n_names)

        calls, incl, selfs = by_op_and_name(), by_op_and_name(dur), by_op_and_name(self_time)
        per_op = []
        for op in range(n_ops):
            rec = {"self": Counter(), "calls": Counter(), "incl": Counter(),
                   "counts": self.counts[op]}
            for i, nm in enumerate(self.names):
                rec["calls"][nm] += int(calls[op, i])
                rec["incl"][nm] += float(incl[op, i])
                rec["self"][nm.split(".", 1)[0]] += float(selfs[op, i])
            per_op.append(rec)
        # outermost-only inclusive time for groups whose members can nest
        groups = {"residual": RESIDUAL_EVALUATORS,
                  "quadrature": ("fields.sphere_flux", "fields.lattice_integral"),
                  "load": ("scenarios.load_frame", "scenarios.load_potential")}
        for group, members in groups.items():
            ids = [self._name_ids[m] for m in members if m in self._name_ids]
            member = np.isin(name, ids)
            outer = member & ~self._has_ancestor(parent, member)
            g_calls, g_incl = by_op_and_name(mask=outer), by_op_and_name(dur, outer)
            for op, rec in enumerate(per_op):
                rec["calls"]["group:" + group] += int(g_calls[op].sum())
                rec["incl"]["group:" + group] += float(g_incl[op].sum())
        flow_id = self._name_ids.get("dynamics.sigma_flow", -1)
        grad_id = self._name_ids.get("dynamics.sigma_lattice_gradient", -1)
        step = (name == grad_id) & nested & (name[np.maximum(parent, 0)] == flow_id)
        flow = name == flow_id
        steps, flow_self = by_op_and_name(mask=step), by_op_and_name(self_time, flow)
        for op, rec in enumerate(per_op):
            rec["calls"]["flow_steps"] += int(steps[op].sum())
            rec["incl"]["flow_self"] += float(flow_self[op].sum())
        return per_op

    @staticmethod
    def _has_ancestor(parent, member):
        """For each span, whether any ancestor span is flagged in `member`."""
        found = np.zeros(len(parent), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            found[live] |= member[up[live]]
            up[live] = parent[up[live]]
        return found


def _values(rec, ops):
    """Metric values from one summary record (or a sum of them) over `ops` ops."""
    calls, incl, counts, self_s = rec["calls"], rec["incl"], rec["counts"], rec["self"]
    steps = calls["flow_steps"]
    values = {
        "linalg.eigh_matrices": counts["eigh_matrices"] / ops,
        "linalg.eigh_calls": counts["eigh_calls"] / ops,
        "linalg.eigh_distinct_inputs": counts["eigh_distinct_inputs"] / ops,
        "linalg.eigh_distinct_ratio": (counts["eigh_distinct_inputs"] / counts["eigh_matrices"]
                                       if counts["eigh_matrices"] else 0.0),
        "linalg.unitary_exp_calls": calls["linalg.unitary_exp"] / ops,
        "linalg.unitary_exp_frechet_calls": calls["linalg.unitary_exp_frechet"] / ops,
        "fields.value_calls": calls["fields.FieldFn.__call__"] / ops,
        "fields.deriv_calls": (calls["fields.FieldFn.d"] + calls["fields.FieldFn.d2"]) / ops,
        "fields.fd1_stencils": counts["fd1_stencils"] / ops,
        "fields.fd2_stencils": counts["fd2_stencils"] / ops,
        "fields.quadrature_s": incl["group:quadrature"] / ops,
        "blade.complement_calls": calls["blade.complement_frame"] / ops,
        "dynamics.residual_point_s": (incl["group:residual"] / calls["group:residual"]
                                      if calls["group:residual"] else 0.0),
        "dynamics.flow_step_s": incl["dynamics.sigma_flow"] / steps if steps else 0.0,
        "dynamics.site_update_s": incl["flow_self"] / steps if steps else 0.0,
        "dynamics.gradient_s": incl["dynamics.sigma_lattice_gradient"] / ops,
        "dynamics.energy_s": incl["dynamics.sigma_lattice_energy"] / ops,
        "dynamics.lattice_build_s": incl["dynamics.blade_lattice_from_field"] / ops,
        "scenarios.validate_s": incl["scenarios.validate_config"] / ops,
        "scenarios.load_s": incl["group:load"] / ops,
        "errors.raised": counts["errors_raised"] / ops,
        "errors.warnings": counts["warnings"] / ops,
    }
    for layer in ("linalg", "fields", "blade", "gauge", "em", "darboux", "embedded", "cli"):
        values[f"{layer}.self_s"] = self_s[layer] / ops
    return values


def per_layer_metrics(tracer, per_op, overhead_frac):
    """Average the traced ops into the per-layer metrics; absent ones are omitted."""
    total = {key: Counter() for key in ("self", "calls", "incl", "counts")}
    for rec in per_op:
        for key, counter in total.items():
            counter.update(rec[key])
    values = _values(total, len(per_op))
    values["trace.overhead_frac"] = overhead_frac
    metrics, absent = {}, []
    for name, (unit, needs) in PER_LAYER.items():
        if not all(any(t in tracer.found for t in (req if isinstance(req, tuple) else (req,)))
                   for req in needs):
            absent.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, absent


def per_kind_counts(per_op, op_kinds):
    """The count metrics of the first op of each kind (they repeat exactly)."""
    out = {}
    for rec, kind in zip(per_op, op_kinds):
        if kind not in out:
            values = _values(rec, 1)
            out[kind] = {name: int(values[name]) for name in COUNT_METRICS}
    return out
