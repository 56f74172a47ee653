"""Per-layer tracing of splinecomplex, installed from outside the library.

Every public function of a layer module (its ``__all__``) is replaced by a
wrapper, in the module that defines it and in every ``splinecomplex``
module that imported it by name.  Classes are never replaced; the methods
listed in ``METHODS`` are wrapped on the class object, so ``isinstance``
keeps working.

A span is recorded where a call crosses from one layer into another; a
call into the layer that is already running is counted but opens no span.
A layer's self time is the time of its spans minus the part covered by
child spans.  Spans are kept in memory as (name, start, end, parent) and
written out by the caller.  ``bspline`` is entered a few hundred thousand
times per operation, so it is aggregated to a call count and time and
records no spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np
import scipy.sparse as sp

LAYERS = (
    "bspline",
    "tmesh",
    "tspline",
    "complexes",
    "exactrank",
    "geometry",
    "assembly",
    "multipatch",
    "solvers",
    "problems",
)

# Functions outside a module's __all__ that another layer calls by name.
EXTRA_FUNCTIONS = {"complexes": ("verify_sequence",)}

METHODS = {
    "tmesh": {
        "TMesh2D": ("from_raw", "with_segments", "is_analysis_suitable", "compute_extensions", "extended", "anchors"),
        "TsplineSpace": ("__init__", "eval", "gram_matrix"),
    },
    "geometry": {"GeometryMap": ("eval", "jacobian", "jacobian_dets")},
    "multipatch": {"Glue": ("global_matrix", "global_vector", "global_dofs_for")},
}

AGGREGATED = frozenset({"bspline"})

# Position of the evaluation-point argument of the B-spline evaluators.
POINT_ARGS = {
    "eval_local": 2,
    "eval_local_deriv": 2,
    "scaled_eval": 3,
    "curry_scaled": 2,
    "eval_basis": 1,
    "eval_basis_deriv": 1,
}


def _nnz(A) -> int:
    return int(A.nnz) if sp.issparse(A) else int(np.count_nonzero(A))


class Tracer:
    """Span stack, per-layer self time and call counts, and size probes."""

    def __init__(self):
        self.enabled = False
        self.stack = []  # open frames: [layer, start, child seconds, span id]
        self.spans = []  # (name, start, end, parent span id or -1)
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()

    def call(self, layer, name, fn, args, kwargs):
        self.calls[layer] += 1
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        parent = stack[-1][3] if stack else -1
        record = layer not in AGGREGATED
        sid = parent
        if record:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [layer, time.perf_counter(), 0.0, sid]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[1]
            self.self_s[layer] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if record:
                self.spans[sid] = (name, frame[1], end, parent)

    def root(self, name, fn, *args):
        """Run ``fn`` as a span of the benchmark itself (layer ``bench``)."""
        return self.call("bench", name, fn, args, {})

    def probe(self, fn, args, kwargs):
        """Run a size probe untraced; its time counts for no layer."""
        start = time.perf_counter()
        self.enabled = False
        try:
            fn(self.counts, *args, **kwargs)
        finally:
            self.enabled = True
            if self.stack:
                self.stack[-1][2] += time.perf_counter() - start


# -- size probes: read the arguments of a call, never its work ------------------


def _probe_elements_2d(counts, space, geom, kind, *rest, **kw):
    if kind == "mass":
        counts["size.elements"] += len(space.elements())


def _probe_elements_3d(counts, cx3, geom, kind, *rest, **kw):
    if kind == "mass":
        ext = cx3.tcx.meshes.M0.extended()
        counts["size.elements"] += len(ext.positive_faces()) * len(cx3.kv_z.spans())


def _system(counts, A, dense_copies):
    counts["size.nnz"] = max(counts["size.nnz"], _nnz(A))
    if dense_copies:
        counts["solvers.dense_bytes"] += dense_copies * 8 * A.shape[0] * A.shape[1]


def _probe_eig(counts, K, M, *rest, **kw):
    _system(counts, K, 2)


def _probe_source(counts, A, b, *rest, **kw):
    _system(counts, A, 0 if sp.issparse(A) else 1)


def _probe_rank(counts, A, *rest, **kw):
    counts["exactrank.ranks"] += 1
    _system(counts, A, 0)


def _probe_modular(counts, *args, **kw):
    counts["exactrank.attempts"] += 1


PROBES = {
    ("assembly", "assemble_matrix_2d"): _probe_elements_2d,
    ("assembly", "assemble_matrix_3d"): _probe_elements_3d,
    ("solvers", "solve_generalized_eig"): _probe_eig,
    ("solvers", "solve_source"): _probe_source,
    ("exactrank", "rank_with_upper_bound"): _probe_rank,
    ("exactrank", "modular_rank"): _probe_modular,
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    qualname = f"{layer}.{name}"
    probe = PROBES.get((layer, name))
    point_arg = POINT_ARGS.get(name) if layer == "bspline" else None
    counts = tracer.counts

    if point_arg is not None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            counts["bspline.eval_calls"] += 1
            counts["bspline.points"] += getattr(args[point_arg], "size", 1)
            return tracer.call(layer, qualname, fn, args, kwargs)

    elif probe is not None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.probe(probe, args, kwargs)
            return tracer.call(layer, qualname, fn, args, kwargs)

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(layer, qualname, fn, args, kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap every layer's public functions and listed methods.

    Returns a callable that puts the original objects back.
    """
    modules = {layer: importlib.import_module(f"splinecomplex.{layer}") for layer in LAYERS}
    package = [m for n, m in list(sys.modules.items()) if n == "splinecomplex" or n.startswith("splinecomplex.")]
    undo = []

    for layer, mod in modules.items():
        for name in list(mod.__all__) + list(EXTRA_FUNCTIONS.get(layer, ())):
            fn = getattr(mod, name)
            if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__:
                continue
            wrapped = _wrap(tracer, layer, name, fn)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, fn))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, layer, f"{cls_name}.{meth}", raw.__func__))
                else:
                    new = _wrap(tracer, layer, f"{cls_name}.{meth}", raw)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
