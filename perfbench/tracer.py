"""Span tracer for the waverep layers, installed from outside the package.

``Tracer.install`` replaces every public function and method of the
layer modules with a wrapper that records one span per call: name,
parent span, start and end (ns), plus two small integers some metrics
need (for example boxes in and out of ``normalize``).  A function that
other modules imported by name (``from .groups import b_transform``) is
rebound in every module that holds it, so each call site is traced.
``Tracer.restore`` puts the originals back.  Spans stay in compact
arrays in memory and are written out once, by ``dump``.

``summarize`` turns one op's span file into per-layer totals; self time
is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from types import FunctionType

LAYERS = ("linalg", "groups", "boxes", "funcs", "gram", "tiling", "spectral", "operators", "density", "jsonio", "cli")

# private functions traced as well, because a per-layer metric needs their boundary
PRIVATE = {"tiling": ("_sample_annulus",), "gram": ("_gram_quadrature",)}
# constructors traced under a span name of their own
CONSTRUCTORS = {("groups", "AdicVector"): "new"}

_MARK = "_perfbench_span"


def _flag(x) -> int:
    return 1 if x else 0


def _normalize_prep(args, kwargs):
    if "boxes" in kwargs:
        kwargs = dict(kwargs, boxes=list(kwargs["boxes"]))
    else:
        args = (args[0], list(args[1])) + args[2:]
    return args, kwargs


def _normalize_post(args, kwargs, result):
    boxes = kwargs["boxes"] if "boxes" in kwargs else args[1]
    return len(boxes), (len(result.boxes) if result is not None else 0)


def _check_post(args, kwargs, result):
    # 1 when the condition ran on the sampled path
    if result is not None:
        return _flag(result.mode == "sampled"), 0
    return _flag(kwargs.get("mode") == "sampled" or not args[1].is_diagonal), 0


POST = {
    "boxes.normalize": _normalize_post,
    "boxes.Box.intersect": lambda a, k, r: (_flag(r is not None), 0),
    "gram.gram_matrix": lambda a, k, r: (len(r.labels), _flag(r.mode == "closed-form")) if r else (0, 0),
    "tiling.check_dilation_disjoint": _check_post,
    "tiling.check_dilation_cover": _check_post,
    "tiling._sample_annulus": lambda a, k, r: (a[0], _flag(r is not None)),
    "operators.fiber_operator": lambda a, k, r: (len(r.phases) if r else 0, 0),
    "operators.induced_operator": lambda a, k, r: (len(r.phases) if r else 0, 0),
}
PREP = {"boxes.normalize": _normalize_prep}


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "waverep" or n.startswith("waverep.")]


def is_traced(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), _MARK)


def traced_bindings() -> int:
    """Number of module or class attributes of waverep that hold a tracing wrapper."""
    count = 0
    for mod in _modules():
        for obj in vars(mod).values():
            if is_traced(obj):
                count += 1
            elif isinstance(obj, type) and obj.__module__.startswith("waverep"):
                count += sum(1 for v in vars(obj).values() if is_traced(v))
    return count


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.aux_a = array("q")
        self.aux_b = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = len(self.names)
        self.names.append(span)
        post, prep = POST.get(span), PREP.get(span)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        aux_a, aux_b, stack, clock = self.aux_a, self.aux_b, self._stack, perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prep is not None:
                args, kwargs = prep(args, kwargs)
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            aux_a.append(0)
            aux_b.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                start[i] = t0
                stack.pop()
                if post is not None:
                    aux_a[i], aux_b[i] = post(args, kwargs, None)
                raise
            end[i] = clock()
            start[i] = t0
            stack.pop()
            if post is not None:
                aux_a[i], aux_b[i] = post(args, kwargs, result)
            return result

        setattr(traced, _MARK, span)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import waverep.cli  # noqa: F401  (loads every layer module)

        wrappers: dict[FunctionType, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"waverep.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    if not name.startswith("_") or name in PRIVATE.get(layer, ()):
                        wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        for mod in _modules():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])

    def _wrap_class(self, layer: str, cls: type) -> None:
        ctor = CONSTRUCTORS.get((layer, cls.__name__))
        for attr, val in list(vars(cls).items()):
            span = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and ctor:
                self._set(cls, attr, self._wrap(val, f"{layer}.{cls.__name__}.{ctor}"))
            elif attr.startswith("_"):
                continue
            elif isinstance(val, FunctionType):
                self._set(cls, attr, self._wrap(val, span))
            elif isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self._wrap(val.__func__, span)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path: str, op_id: str) -> None:
        import numpy as np  # only traced children and the benchmark process load numpy

        np.savez(
            path,
            op=np.array(op_id),
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            aux_a=np.frombuffer(self.aux_a, dtype=np.int64),
            aux_b=np.frombuffer(self.aux_b, dtype=np.int64),
        )


# --- per-op totals ------------------------------------------------------------------


def summarize(path: str) -> Counter:
    """Raw per-op totals from one span file (counts, self seconds, aux sums)."""
    import numpy as np

    with np.load(path) as d:
        names = [str(s) for s in d["names"]]
        nid, par = d["name_id"], d["parent"]
        dur = (d["end"] - d["start"]).astype(float) / 1e9
        a, b = d["aux_a"], d["aux_b"]
    ids = {s: i for i, s in enumerate(names)}
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(nid))
    self_t = dur - child
    calls = np.bincount(nid, minlength=len(names))
    self_by_name = np.bincount(nid, weights=self_t, minlength=len(names))
    parent_name = np.where(has_parent, nid[np.maximum(par, 0)], -1)

    t: Counter = Counter()
    for s, i in ids.items():
        t[f"calls:{s}"] += int(calls[i])
        t[f"self:{s.split('.')[0]}"] += float(self_by_name[i])
        t[f"selfname:{s}"] += float(self_by_name[i])

    def sel(name):
        return nid == ids.get(name, -2)

    def under(name, parent):
        return sel(name) & (parent_name == ids.get(parent, -2))

    t["normalize.in"] = int(a[sel("boxes.normalize")].sum())
    t["normalize.out"] = int(b[sel("boxes.normalize")].sum())
    t["intersect.hits"] = int(a[sel("boxes.Box.intersect")].sum())
    t["canon.solves"] = int(under("linalg.solve_integer", "groups.AdicVector.new").sum())
    gm = sel("gram.gram_matrix")
    closed = gm & (b == 1)
    t["gram.labels"] = int(a[gm].sum())
    t["gram.entries"] = int((a[closed] * (a[closed] + 1) // 2).sum())
    inner = sel("funcs.ModulatedBoxSum.inner")
    t["gram.inner"] = int((inner & has_parent & closed[np.maximum(par, 0)]).sum())
    t["gram.closed.self"] = float(self_t[closed].sum())
    t["gram.quad.self"] = float(self_t[gm & (b == 0)].sum() + self_t[sel("gram._gram_quadrature")].sum())
    checks = sel("tiling.check_dilation_disjoint") | sel("tiling.check_dilation_cover")
    sampler = sel("tiling._sample_annulus") | sel("tiling.counter_uniform")
    t["tiling.exact.self"] = float(self_t[checks & (a == 0)].sum())
    t["tiling.sampled.self"] = float(self_t[checks & (a == 1)].sum() + self_t[sampler].sum())
    sa = np.nonzero(sel("tiling._sample_annulus"))[0]
    if len(sa):
        cu = under("tiling.counter_uniform", "tiling._sample_annulus")
        per = np.bincount(par[cu], minlength=len(nid))[sa]
        t["sample.attempts"] = float((per / a[sa]).sum())
        t["sample.accepted"] = int(b[sa].sum())
    t["span.dilates"] = int(under("boxes.BoxSet.dilate", "spectral.layer_span").sum())
    fibers = sel("operators.fiber_operator") | sel("operators.induced_operator")
    t["phases"] = int(a[fibers].sum())
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit, better, function of (totals, op count)) for every per-layer metric
def _calls(name):
    return lambda t, n: t[f"calls:{name}"] / n


def _self(key):
    return lambda t, n: t[key] / n


METRICS = [
    ("linalg.mat_pow.calls", "count", "lower", _calls("linalg.mat_pow")),
    ("linalg.solve.calls", "count", "lower", _calls("linalg.solve")),
    ("linalg.solve_float.calls", "count", "lower", _calls("linalg.solve_float")),
    ("linalg.self_s", "s", "lower", _self("self:linalg")),
    ("groups.AdicVector.new.calls", "count", "lower", _calls("groups.AdicVector.new")),
    ("groups.canon_solves_per_vector", "ratio", "lower",
     lambda t, n: _ratio(t["canon.solves"], t["calls:groups.AdicVector.new"])),
    ("groups.AdicVector.values.calls", "count", "lower", _calls("groups.AdicVector.values")),
    ("groups.AdicVector.twist.calls", "count", "lower", _calls("groups.AdicVector.twist")),
    ("groups.character_value.calls", "count", "lower", _calls("groups.character_value")),
    ("groups.b_transform.calls", "count", "lower", _calls("groups.b_transform")),
    ("groups.self_s", "s", "lower", _self("self:groups")),
    ("boxes.normalize.calls", "count", "lower", _calls("boxes.normalize")),
    ("boxes.normalize.boxes_in", "count", "lower", _self("normalize.in")),
    ("boxes.normalize.boxes_out", "count", "lower", _self("normalize.out")),
    ("boxes.BoxSet.subtract.calls", "count", "lower", _calls("boxes.BoxSet.subtract")),
    ("boxes.BoxSet.dilate.calls", "count", "lower", _calls("boxes.BoxSet.dilate")),
    ("boxes.BoxSet.contains.calls", "count", "lower", _calls("boxes.BoxSet.contains")),
    ("boxes.Box.intersect.calls", "count", "lower", _calls("boxes.Box.intersect")),
    ("boxes.Box.intersect.hit_ratio", "ratio", "higher",
     lambda t, n: _ratio(t["intersect.hits"], t["calls:boxes.Box.intersect"])),
    ("boxes.self_s", "s", "lower", _self("self:boxes")),
    ("funcs.ModulatedBoxSum.inner.calls", "count", "lower", _calls("funcs.ModulatedBoxSum.inner")),
    ("funcs.axis_integral.calls", "count", "lower", _calls("funcs.axis_integral")),
    ("funcs.self_s", "s", "lower", _self("self:funcs")),
    ("gram.labels", "count", "higher", _self("gram.labels")),
    ("gram.inner_per_entry", "ratio", "lower", lambda t, n: _ratio(t["gram.inner"], t["gram.entries"])),
    ("gram.closed_form.self_s", "s", "lower", _self("gram.closed.self")),
    ("gram.quadrature.self_s", "s", "lower", _self("gram.quad.self")),
    ("tiling.counter_uniform.calls", "count", "lower", _calls("tiling.counter_uniform")),
    ("tiling.sample_accept_ratio", "ratio", "higher",
     lambda t, n: _ratio(t["sample.accepted"], t["sample.attempts"])),
    ("tiling.exact_checks.self_s", "s", "lower", _self("tiling.exact.self")),
    ("tiling.sampled_checks.self_s", "s", "lower", _self("tiling.sampled.self")),
    ("tiling.check_translation_congruent.self_s", "s", "lower", _self("selfname:tiling.check_translation_congruent")),
    ("spectral.layer_span.calls", "count", "lower", _calls("spectral.layer_span")),
    ("spectral.dilates_per_span", "ratio", "lower",
     lambda t, n: _ratio(t["span.dilates"], t["calls:spectral.layer_span"])),
    ("spectral.to_layers.self_s", "s", "lower", _self("selfname:spectral.to_layers")),
    ("spectral.isometry_defect.self_s", "s", "lower", _self("selfname:spectral.isometry_defect")),
    ("spectral.project_point.calls", "count", "lower", _calls("spectral.project_point")),
    ("operators.fiber_operator.calls", "count", "lower", _calls("operators.fiber_operator")),
    ("operators.induced_operator.calls", "count", "lower", _calls("operators.induced_operator")),
    ("operators.phases", "count", "lower", _self("phases")),
    ("operators.self_s", "s", "lower", _self("self:operators")),
    ("density.approx_character.self_s", "s", "lower", _self("selfname:density.approx_character")),
    ("density.mean_coefficient.self_s", "s", "lower", _self("selfname:density.mean_coefficient")),
    ("jsonio.self_s", "s", "lower", _self("self:jsonio")),
    ("cli.self_s", "s", "lower", _self("self:cli")),
    ("cli.report_bytes", "bytes", "lower", _self("report_bytes")),
    ("trace.overhead_ratio", "ratio", "lower", lambda t, n: _ratio(t["traced_op_s"], t["untraced_op_s"])),
    ("trace.accounted_share", "ratio", "higher", lambda t, n: _ratio(t["self_total"], t["traced_child_s"])),
]
