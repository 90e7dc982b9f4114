"""Spans around the public calls of each nodalab layer, recorded from outside.

`Tracer.install` replaces each traced function at every module attribute
that binds it (a caller that did `from .levelset import extract` holds its
own name) and each traced method on its class.  A span records its name,
start, end, parent, the thread it ran on and the number of points or
samples its call was given (for `extract`, the facets it returned).  Spans stay in memory until `write`.
Threads started by a traced call (the Monte Carlo pool) take the main
thread's innermost open span as their parent.
"""

from __future__ import annotations

import functools
import json
import threading
import time

import numpy as np

_FUNCTIONS = {
    "harmonics": ("random_solid_harmonic", "make_basis", "harmonic_project"),
    "levelset": (
        "extract", "thin_shell", "mc_mean", "streamed_radial_sums", "radial_profile",
        "weighted_area", "weighted_area_error_bound",
    ),
    "analysis": (
        "value_distribution_density", "unimodality_check", "monotonicity_check",
        "prop51_check", "spherical_monotonicity", "divergence_identity_check",
    ),
    "cli": ("run",),
}

_MODULES = ("fields", "harmonics", "levelset", "analysis", "cli")

PER_LAYER_UNITS = {
    "fields.poly_points": "count",
    "fields.poly_self_s": "s",
    "fields.trig_points": "count",
    "fields.trig_self_s": "s",
    "fields.weight_self_s": "s",
    "harmonics.build_s": "s",
    "levelset.sample_points": "count",
    "levelset.sample_self_s": "s",
    "levelset.extract_calls": "count",
    "levelset.facets": "count",
    "levelset.extract_self_s": "s",
    "levelset.facets_per_s": "1/s",
    "levelset.field_points_per_facet": "1",
    "levelset.radial_self_s": "s",
    "levelset.mc_self_s": "s",
    "levelset.mc_samples": "count",
    "levelset.shell_hit_ratio": "1",
    "analysis.density_self_s": "s",
    "analysis.unimodal_self_s": "s",
    "analysis.monotone_self_s": "s",
    "analysis.prop51_self_s": "s",
    "analysis.sphere_self_s": "s",
    "analysis.divergence_self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "count",
    "trace.wall_s": "s",
}


def _field_methods(nodalab):
    f = nodalab.fields
    return (
        (f.SparsePolynomial, "poly", ("value", "gradient", "hessian")),
        (f.TrigEigenfunction, "trig", ("value", "gradient", "hessian", "laplacian")),
        (f.ScalarField, None, ("grad_norm", "laplacian")),
        (f.GaussianWeight, "weight", ("value", "gradient", "hessian")),
        (f.ConstantWeight, "weight", ("value", "gradient", "hessian")),
        (f.GradientNormField, "weight", ("value", "gradient")),
        (f.WeightedField, "weight", ("value", "gradient", "hessian", "laplacian", "grad_norm",
                                     "weight_values", "weighted_laplacian")),
    )


def _kind(obj):
    name = type(obj).__name__
    if name == "SparsePolynomial":
        return "poly"
    if name == "TrigEigenfunction":
        return "trig"
    return "weight"


def _npoints(x):
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, thread id, points]
        self.spans = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._restore = []
        self._lock = threading.Lock()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, points, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        span = [name, time.perf_counter(), 0.0, parent, threading.get_ident(), points]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if name == "levelset.extract":
            span[5] = int(result.n_facets)
        return result

    def _wrap_function(self, name, fn, points_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, points_of(args, kwargs), fn, args, kwargs)

        wrapper.__traced__ = fn
        return wrapper

    def _wrap_method(self, kind, method, fn):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            name = f"fields.{kind or _kind(obj)}.{method}"
            points = _npoints(args[0] if args else kwargs["x"])
            return self._call(name, points, fn, (obj,) + args, kwargs)

        wrapper.__traced__ = fn
        return wrapper

    def install(self, nodalab):
        """Wrap the traced calls of `nodalab`; `uninstall` undoes it."""
        modules = [nodalab] + [getattr(nodalab, m) for m in _MODULES]
        for mod_name, names in _FUNCTIONS.items():
            for fname in names:
                fn = getattr(getattr(nodalab, mod_name), fname)
                wrapper = self._wrap_function(f"{mod_name}.{fname}", fn, _points_of(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for cls, kind, methods in _field_methods(nodalab):
            for method in methods:
                fn = cls.__dict__[method]
                self._restore.append((cls, method, fn))
                setattr(cls, method, self._wrap_method(kind, method, fn))
        domain = nodalab.levelset.Domain
        sample = domain.__dict__["sample"]
        self._restore.append((domain, "sample", sample))
        setattr(domain, "sample", self._wrap_function(
            "levelset.sample", sample, lambda args, kwargs: int(args[1])))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "points"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _points_of(fname):
    if fname == "mc_mean":
        return lambda args, kwargs: int(args[2] if len(args) > 2 else kwargs["n_samples"])
    return lambda args, kwargs: 0


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = np.empty(len(spans))
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[1]
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = (s[2] - s[1]) - covered
    return out


def _ancestor_named(spans, i, prefix):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith(prefix):
            return p
        p = spans[p][3]
    return -1


def layer_metrics(spans, rounds, round_start):
    """Per-layer metrics.  Spans that start at or after `round_start` are
    divided by `rounds` (per-round figures); harmonics.build_s covers the
    set-up before it."""
    self_s = self_times(spans)
    m = {}

    timed = [s[1] >= round_start for s in spans]

    def rsum(pred, values):
        return float(sum(v for s, v, t in zip(spans, values, timed) if t and pred(s))) / rounds

    points = [s[5] for s in spans]
    outer_field = [s[0].startswith("fields.") and _ancestor_named(spans, i, "fields.") < 0
                   for i, s in enumerate(spans)]

    m["fields.poly_points"] = rsum(lambda s: s[0] == "fields.poly.value", points)
    m["fields.poly_self_s"] = rsum(lambda s: s[0].startswith("fields.poly."), self_s)
    m["fields.trig_points"] = rsum(
        lambda s: s[0] in ("fields.trig.value", "fields.trig.gradient", "fields.trig.hessian"), points)
    m["fields.trig_self_s"] = rsum(lambda s: s[0].startswith("fields.trig."), self_s)
    m["fields.weight_self_s"] = rsum(lambda s: s[0].startswith("fields.weight."), self_s)

    durations = [s[2] - s[1] for s in spans]
    m["harmonics.build_s"] = float(sum(
        d for s, d in zip(spans, durations)
        if s[0].startswith("harmonics.") and s[3] < 0 and s[1] < round_start))

    m["levelset.sample_points"] = rsum(lambda s: s[0] == "levelset.sample", points)
    m["levelset.sample_self_s"] = rsum(lambda s: s[0] == "levelset.sample", self_s)

    extract = [i for i, s in enumerate(spans) if s[0] == "levelset.extract" and timed[i]]
    facets = sum(spans[i][5] for i in extract) / rounds
    m["levelset.extract_calls"] = len(extract) / rounds
    m["levelset.facets"] = facets
    m["levelset.extract_self_s"] = rsum(lambda s: s[0] == "levelset.extract", self_s)
    extract_s = sum(durations[i] for i in extract) / rounds
    m["levelset.facets_per_s"] = facets / extract_s if extract_s > 0 else 0.0
    in_extract = [outer_field[i] and timed[i] and _ancestor_named(spans, i, "levelset.extract") >= 0
                  for i in range(len(spans))]
    extract_points = sum(p for p, f in zip(points, in_extract) if f) / rounds
    m["levelset.field_points_per_facet"] = extract_points / facets if facets else 0.0
    m["levelset.radial_self_s"] = rsum(lambda s: s[0] == "levelset.streamed_radial_sums", self_s)
    m["levelset.mc_self_s"] = rsum(lambda s: s[0] in ("levelset.mc_mean", "levelset.thin_shell"), self_s)
    m["levelset.mc_samples"] = rsum(lambda s: s[0] == "levelset.mc_mean", points)

    value_pts = grad_pts = 0
    for i, s in enumerate(spans):
        if outer_field[i] and timed[i] and _ancestor_named(spans, i, "levelset.thin_shell") >= 0:
            if s[0].endswith(".value"):
                value_pts += s[5]
            elif s[0].endswith(".grad_norm"):
                grad_pts += s[5]
    m["levelset.shell_hit_ratio"] = grad_pts / value_pts if value_pts else 0.0

    for key, fname in (("density", "value_distribution_density"), ("unimodal", "unimodality_check"),
                       ("monotone", "monotonicity_check"), ("prop51", "prop51_check"),
                       ("sphere", "spherical_monotonicity"), ("divergence", "divergence_identity_check")):
        m[f"analysis.{key}_self_s"] = rsum(lambda s, n=f"analysis.{fname}": s[0] == n, self_s)
    m["cli.self_s"] = rsum(lambda s: s[0] == "cli.run", self_s)
    return m
