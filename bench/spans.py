"""Span recorders wrapped around lagmin's public functions.

``install()`` replaces every binding of each traced function, in every
``lagmin`` module and class, with a wrapper that records a span.  Modules
import names directly (``from .jets import jet_polynomial``) and classes
alias methods (``Jet.__rmul__ = __mul__``), so rebinding only the defining
attribute would miss calls.  No source file is changed.

A span's self time is its duration minus the time of the spans it
encloses.  Counts come from call arguments and return values.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


# Counters take (args, result, duration); result is None when the call
# raised, so counters that read it skip those calls.

def _jet_elems(args, result, dur):
    return {"elems": max(a.d[0, 0].size for a in args if hasattr(a, "d"))}


def _xy_elems(args, result, dur):
    return {"elems": _size(args[0], args[1])}


def _points(args, result, dur):
    return {"points": _size(args[1], args[2])}


def _single_point(args, result, dur):
    if _size(args[1], args[2]) != 1:
        return {}
    return {"single_point_calls": 1, "single_point_s": dur}


def _mesh_counts(args, result, dur):
    if result is None:
        return {}
    ok = np.asarray(args[1])
    rows, cols = ok.shape
    return {"vertices": len(result.vertices), "faces": len(result.faces),
            "masked_points": int(ok.size - np.count_nonzero(ok)),
            "dropped_cells": (rows - 1) * (cols - 1) - len(result.faces)}


def _obj_bytes(args, result, dur):
    if result is None:
        return {}
    return {"obj_bytes": len(result.encode("utf-8"))}


def _check_counts(args, result, dur):
    if result is None:
        return {}
    reports = result if isinstance(result, list) else [result]
    return {"checks_run": len(reports),
            "checks_passed": sum(bool(r.passed) for r in reports)}


def _tangency_counts(args, result, dur):
    out = _check_counts(args, result, dur)
    if result is not None:
        out["vertex_sphere_pairs"] = (len(args[1])
                                      * int(result.meta["vertices"]))
    return out


# (span name, module, attribute names, counter).  A counter's keys are
# recorded as "<span>.<key>", or as "<layer>.<key>" for the layer-wide
# keys of _LAYER_KEYS.
SPANS = (
    ("meshing.mesh_from_grid", "meshing", ("mesh_from_grid",), _mesh_counts),
    ("meshing.surface_mesh", "meshing", ("surface_mesh",), None),
    ("meshing.obj_text", "meshing", ("obj_text",), _obj_bytes),
    ("meshing.atomic_write_text", "meshing", ("atomic_write_text",), None),
    ("jets.mul", "jets", ("__mul__", "__rmul__"), _jet_elems),
    ("jets.reciprocal", "jets", ("reciprocal",), _jet_elems),
    ("jets.sqrt", "jets", ("sqrt",), _jet_elems),
    ("jets.compose", "jets", ("compose",), _jet_elems),
    ("jets.polynomial", "jets", ("jet_polynomial",), _xy_elems),
    ("fields.jet", "fields", ("jet",), _points),
    ("fields.bilaplacian", "fields", ("bilaplacian",), None),
    ("fields.is_safe", "fields", ("is_safe",), None),
    ("surfaces.frame", "surfaces", ("frame",), _points),
    ("surfaces.is_safe", "surfaces", ("is_safe",), None),
    ("reconstruct.frame", "reconstruct", ("frame",), _points),
    ("reconstruct.isotropic_image", "reconstruct", ("isotropic_image",),
     _single_point),
    ("verify.tangency_residual", "verify", ("tangency_residual",),
     _tangency_counts),
    ("verify.stationarity_check", "verify", ("stationarity_check",),
     _check_counts),
    ("verify.first_variation", "verify", ("first_variation",), None),
    ("verify.biharmonic_residual", "verify", ("biharmonic_residual",),
     _check_counts),
    ("verify.fd_curvature_check", "verify", ("fd_curvature_check",),
     _check_counts),
    ("verify.gaussmap_identity_residual", "verify",
     ("gaussmap_identity_residual",), _check_counts),
    ("verify.ruling_residual", "verify", ("ruling_residual",), _check_counts),
    ("pencils.classify_family", "pencils", ("classify_family",), None),
    ("grammar.parse_surface", "grammar", ("parse_surface",), None),
    ("grammar.parse_field", "grammar", ("parse_field",), None),
    ("cli.main", "cli", ("main",), None),
)

# Counter keys that belong to a layer rather than to one span.
_LAYER_KEYS = {"vertices": "meshing", "faces": "meshing",
               "masked_points": "meshing", "dropped_cells": "meshing",
               "obj_bytes": "meshing", "checks_run": "verify",
               "checks_passed": "verify"}

TANGENCY = "verify.tangency_residual"


class Tracer:
    """In-memory span aggregates: per name, calls, self time and counts."""

    def __init__(self):
        self.stats = {}
        self._stack = []            # per open span: time of its child spans
        self._in_tangency = 0

    def _add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value

    def wrap(self, name, func, counter):
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            tracer._stack.append(0.0)
            tangency = name == TANGENCY
            tracer._in_tangency += tangency
            t0 = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                tracer._in_tangency -= tangency
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                tracer._record(name, dur, dur - child)
                if counter is not None:
                    for key, value in counter(args, result, dur).items():
                        tracer._add("%s.%s" % (_LAYER_KEYS.get(key, name), key),
                                    value)

        return span

    def _record(self, name, dur, self_s):
        self._add(name + ".calls", 1)
        self._add(name + ".self_s", self_s)
        if self._in_tangency and name != TANGENCY:
            self._add(name + ".in_tangency_s", dur)
            self._add(name + ".in_tangency_self_s", self_s)

    def metrics(self) -> dict:
        out = dict(self.stats)
        for key in list(out):
            if key.endswith(".elems"):
                calls = out[key[:-len("elems")] + "calls"]
                out[key + "_mean"] = out[key] / calls
        return out


def _owners():
    """Every lagmin module and every class defined in one."""
    seen = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "lagmin" and not modname.startswith("lagmin."):
            continue
        seen[id(mod)] = mod
        for value in vars(mod).values():
            if (inspect.isclass(value)
                    and getattr(value, "__module__", "").startswith("lagmin")):
                seen[id(value)] = value
    return list(seen.values())


def _targets(module, attrs):
    """The function objects a span covers: module-level functions of that
    name, and methods of that name defined by classes of the module."""
    found = {}
    for attr in attrs:
        value = vars(module).get(attr)
        if inspect.isfunction(value):
            found[id(value)] = value
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                value = vars(cls).get(attr)
                if inspect.isfunction(value):
                    found[id(value)] = value
    return list(found.values())


def install() -> Tracer:
    """Wrap every traced function of an imported lagmin; return the tracer."""
    import lagmin.cli  # noqa: F401  (imports every traced module)

    tracer = Tracer()
    owners = _owners()
    for name, modname, attrs, counter in SPANS:
        module = sys.modules["lagmin." + modname]
        funcs = _targets(module, attrs)
        if not funcs:
            raise RuntimeError("nothing to trace for span %r" % (name,))
        for func in funcs:
            wrapper = tracer.wrap(name, func, counter)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is func:
                        setattr(owner, key, wrapper)
    return tracer
