"""Galerkin assembly on (extended) T-meshes.

Integration covers the positive-area faces of the extended mesh with
tensor Gauss rules of order degree+1 per direction; zero-measure elements
are skipped.  A Vector2D is built from its T-spline complex, whose spaces
all extend to one mesh (``ComplexMeshes.extended_meshes_agree``), and
integrates on its first component's elements.  Every element is one
batch: the dof rows (nel, ndof) are padded with -1 where elements have
fewer active functions; the padding has zero tables and is never scattered.

Every matrix is one element kernel, sum_q T_q W_q T_q^T, and its kind picks
both factors:

* the dof table T, shape (ndof, npts, c): the reference values of the space
  for 'mass'; the reference values of its exterior derivative (grad, rot)
  for 'gradgrad' and 'rotrot'.  T is stored as component tables, each the
  component c of a contiguous run of functions, zero on the others
  (:func:`_space_tables`): a Vector2D value has one per component block,
  so the kernel (:func:`_element_matrices`) multiplies no zero component;
* the form degree j of the integrand: the space's own (Scalar2D 0,
  Vector2D 1) for 'mass', one more for the derivative kinds; W is the
  weight of the degree-j pullback (:func:`pullback_weight`): det J for
  j=0, J^-1 J^-T det J for j=1, 1 / det J for the top form.

Per patch and quadrature rule, the Gauss points of all cells form one
record, shape (ncell, npts, d): the geometry (J, det J) and the pullback
weights are evaluated once on it.  The element blocks of a matrix go into a
CSR pattern built once per element set (sorted ``indptr``/``indices`` plus
the slot of every block entry in ``data``), so each kind is one
``np.bincount`` over the slots.  :func:`_shared_patterns` is the one
sharing scope: inside it every kind and every patch on the same spaces
reuses the pattern, every patch on the same 2D space its batched dof
tables of one rule and derivative, and every kind of a patch on one rule,
vector and scalar alike, the geometry of that rule.

The library's 3D form is the prism: a section space times a vertical
spline direction, whose matrices are Kronecker sums of section matrices
and the dense vertical ones of :func:`_vertical_mass`
(:mod:`splinecomplex.problems`).  The assembled 3D curl-conforming space
is a test oracle (``tests/oracle3d.py``) built on the same kernel.

Every space type describes itself by ``blocks()``: per component block,
(dof offset, 2D T-spline space, vertical knot vector or None, vertical
scaling, reference component or None for scalars); dof ``offset + iz *
dim2d + anchor``.  :func:`traces` enumerates from it the functions with a
nonzero tangential trace on a face, with their local knot vectors along
the face, which is all the Dirichlet walls and the interface glue of
:mod:`splinecomplex.multipatch` read.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .bspline import KnotVector, scaled_eval
from .geometry import pullback_weight
from .tmesh import TsplineSpace
from .tspline import TsplineComplex

__all__ = [
    "gauss_points_1d",
    "Scalar2D",
    "Vector2D",
    "assemble_matrix_2d",
    "dirichlet_dofs",
    "traces",
]

_leggauss = cache(leggauss)


def gauss_points_1d(a, b, order):
    gx, gw = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * gx, half * gw


def _rules_2d(boxes, order):
    """Tensor Gauss rules of all boxes (x1, y1, x2, y2): points (nbox,
    order**2, 2), x index slowest, and weights (nbox, order**2)."""
    B = np.asarray(boxes, dtype=float).reshape(-1, 4)
    px, wx = gauss_points_1d(B[:, :1], B[:, 2:3], order)
    py, wy = gauss_points_1d(B[:, 1:2], B[:, 3:], order)
    P = np.stack(np.broadcast_arrays(px[:, :, None], py[:, None, :]), axis=-1)
    return P.reshape(len(B), -1, 2), (wx[:, :, None] * wy[:, None, :]).reshape(len(B), -1)


# -- space wrappers ------------------------------------------------------------


@dataclass
class Scalar2D:
    """Scalar 2D space (form degree 0) over one T-spline space."""

    space: TsplineSpace

    @property
    def dim(self):
        return self.space.dim

    def elements(self):
        return self.space.elements

    def blocks(self):
        return ((0, self.space, None, None, None),)


@dataclass
class Vector2D:
    """Rot-conforming vector 2D space: the Y1 of the T-spline complex
    ``tcx``, components c1 = D x B and c2 = B x D."""

    tcx: TsplineComplex

    @property
    def c1(self) -> TsplineSpace:
        return self.tcx.Y1[0]

    @property
    def c2(self) -> TsplineSpace:
        return self.tcx.Y1[1]

    @property
    def dim(self):
        return self.c1.dim + self.c2.dim

    def gradient(self):
        """The exact gradient: the scalar space Y0 and grad: Y0 -> Y1, whose
        image is the kernel of rot."""
        return Scalar2D(self.tcx.Y0), self.tcx.operators["grad"]

    def elements(self):
        return self.c1.elements

    def blocks(self):
        return ((0, self.c1, None, None, 0), (self.c1.dim, self.c2, None, None, 1))


# Per space type: its form degree and the kind built on its derivative table.
_FORMS = {Scalar2D: (0, "gradgrad"), Vector2D: (1, "rotrot")}


# -- the element kernel -------------------------------------------------------------


def _kind(space, kind):
    """(derivative table?, form degree j of the integrand) of a matrix kind."""
    form, deriv_kind = _FORMS[type(space)]
    if kind == "mass":
        return False, form
    if kind == deriv_kind:
        return True, form + 1
    raise ValueError(f"unknown kind {kind!r} for {type(space).__name__}")


def _element_matrices(comps, Gw, ndof):
    """sum_q T_q Gw_q T_q^T of every element, (nel, ndof, ndof), from the
    component tables ``comps`` of the dof table T (:func:`_space_tables`)
    and the weights Gw (nel, npts, c, c).  With (s_a, V_a) the table of
    component a, the block (a, b) is V_a diag(Gw[..., a, b]) V_b^T, one
    BLAS product per element for each a <= b, added at the functions of
    the two tables; the block (b, a) is its mirror, Gw being symmetric.
    Tables of disjoint functions (a vector space's) never multiply a zero."""
    out = np.zeros((len(Gw), ndof, ndof))
    for a, (sa, Va) in enumerate(comps):
        for b, (sb, Vb) in enumerate(comps[a:], a):
            block = (Va * Gw[:, None, :, a, b]) @ np.swapaxes(Vb, -1, -2)
            out[:, sa : sa + Va.shape[1], sb : sb + Vb.shape[1]] += block
            if b > a:
                out[:, sb : sb + Vb.shape[1], sa : sa + Va.shape[1]] += np.swapaxes(block, -1, -2)
    return out


_SHARED = None  # what _shared() made while _shared_patterns() is open, by key


@contextmanager
def _shared_patterns():
    """Matrices assembled inside the block on the same element dof lists
    share one sparsity pattern, on the same 2D space one set of element dof
    tables per rule and derivative, and on the same patch and rule one
    geometry evaluation.  A block opened inside an open block joins it; all
    is dropped when the outermost block exits."""
    global _SHARED
    outer, _SHARED = _SHARED, {} if _SHARED is None else _SHARED
    try:
        yield
    finally:
        _SHARED = outer


def _shared(key, make):
    """make(), made once per ``key`` while :func:`_shared_patterns` is open."""
    if _SHARED is None:
        return make()
    if key not in _SHARED:
        _SHARED[key] = make()
    return _SHARED[key]


def _space_key(space) -> tuple:
    """The 2D spaces and vertical knot vectors of the blocks of ``space``,
    which fix its element dof lists: the key of its shared pattern."""
    return tuple((s2d, kvz) for _, s2d, kvz, _, _ in space.blocks())


def _pairs(dofs):
    """The (nel, m, m) mask of the block entries joining two dofs of padded element dof rows."""
    valid = dofs >= 0
    return valid[:, :, None] & valid[:, None, :]


def _pattern(n, dofs):
    """CSR pattern of the blocks dofs x dofs of padded element dof rows:
    (indptr, indices, slot), slot the position in ``data`` of each entry of
    :func:`_pairs`, element-major and row-major."""
    element, _ = np.nonzero(dofs >= 0)
    E = sp.csr_matrix((np.ones(element.size), (element, dofs[dofs >= 0])), shape=(len(dofs), n))
    A = (E.T @ E).tocsr()  # the dof pairs sharing an element
    A.sort_indices()
    itype = np.int32 if n * n < 2**31 else np.int64  # keys row * n + col
    flat = np.repeat(np.arange(n, dtype=itype), np.diff(A.indptr)) * itype(n) + A.indices  # sorted
    d = dofs.astype(itype)
    return A.indptr, A.indices, np.searchsorted(flat, (d[:, :, None] * itype(n) + d[:, None, :])[_pairs(dofs)])


def _weights(geom, rule, j):
    """Degree-j pullback weights (ncell, npts, c, c) at the points (ncell,
    npts, d) of ``rule`` = (points, weights), from one geometry call shared
    inside :func:`_shared_patterns` per patch and points."""
    P, W = rule
    P = P.reshape(-1, P.shape[-1])
    J, det = _shared((geom, P.tobytes()), lambda: geom.jacobian_dets(P))
    G = pullback_weight(j, J, det, W.ravel())
    return G.reshape(*W.shape, *G.shape[1:])


def _csr(space, n, dofs, data):
    """Sum the element blocks into an n x n CSR matrix: ``dofs`` the padded
    element dof rows of ``space``, ``data`` the entries of their
    :func:`_pairs`.  The pattern is shared per space key."""
    indptr, indices, slot = _shared(_space_key(space), lambda: _pattern(n, dofs))
    data = np.bincount(slot, weights=data, minlength=indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))  # copies: the pattern is shared


# -- 2D assembly -----------------------------------------------------------------


def _space_tables(space, order, deriv) -> tuple:
    """The padded dof rows (nel, ndof) of a 2D ``space`` and the component
    tables of its reference values, or with ``deriv`` of its grads
    (Scalar2D) or rots (Vector2D).

    The c-th component table (start, V) gives, in V (nel, ndof_c, npts),
    the component c of the functions start .. start + ndof_c of the rows;
    c is zero on the others.  A grad has two tables on all functions; a rot
    and a scalar value have one; a Vector2D value has one per component
    block, (0, D x B values) and (ndof_1, B x D values), so no table holds
    a zero component.
    """
    if isinstance(space, Scalar2D):
        act, *tabs = space.space.element_tables(order, *(("dx", "dy") if deriv else ("value",)))
        return act, tuple((0, t) for t in tabs)
    # rot (f, 0) = -df/dy, rot (0, g) = dg/dx: only those derivatives are tabulated
    names = ("dy", "dx") if deriv else ("value", "value")
    (a1, t1), (a2, t2) = (S.element_tables(order, t) for S, t in zip((space.c1, space.c2), names))
    idx = np.concatenate([a1, np.where(a2 >= 0, space.c1.dim + a2, -1)], axis=1)
    return idx, ((0, np.concatenate([-t1, t2], axis=1)),) if deriv else ((0, t1), (a1.shape[1], t2))


def assemble_matrix_2d(space, geom, kind):
    """Sparse symmetric Galerkin matrix on one 2D patch: 'mass' and
    'gradgrad' on Scalar2D, 'mass' and 'rotrot' on Vector2D, every element
    in one batched kernel."""
    deriv, j = _kind(space, kind)
    order = max(space.space.degrees if isinstance(space, Scalar2D) else space.c1.degrees) + 1
    G = _weights(geom, _rules_2d(space.elements(), order), j)
    idx, comps = _shared((*_space_key(space), order, deriv), lambda: _space_tables(space, order, deriv))
    return _csr(space, space.dim, idx, _element_matrices(comps, G, idx.shape[1])[_pairs(idx)])


# -- vertical factors of prisms ---------------------------------------------------


def _span_rule(kv: KnotVector, order):
    """The ``order``-point Gauss rules of all spans of ``kv``, one after the
    other: points and weights, each (nspans * order,)."""
    spans = np.array(kv.spans(), dtype=float)
    x, w = gauss_points_1d(spans[:, :1], spans[:, 1:], order)
    return x.ravel(), w.ravel()


def _vertical_mass(kv: KnotVector, scaling):
    """The dense 1D mass matrix int f_i f_j of the ``scaling``-scaled
    functions of ``kv``, Z^T diag(w) Z from their values Z on a Gauss rule
    (x, w) exact on every span."""
    x, w = _span_rule(kv, kv.degree + 1)
    Z = scaled_eval(kv.local_rows, kv.degree, scaling, x)
    return Z.T @ (w[:, None] * Z)


# -- traces: boundary conditions and interfaces --------------------------------------


def traces(space, face):
    """One record (dof, c, lkvs) per function of ``space`` with a nonzero
    (tangential) trace on ``face`` = (axis, side), axis 2 vertical in 3D.

    A function of a block is the product of its 2D anchor's factors and, in
    3D, a vertical factor.  It reaches the face exactly when its factor
    along ``axis`` is clamped at ``side`` (at the block's degree along
    ``axis``); a component normal to the face has no tangential trace.
    ``c`` is the index of the function's component among the face axes
    (None for scalars), and ``lkvs`` gives, per face axis in increasing
    order, the local knot vector of the trace.  Records come block by
    block, 2D anchor slowest.
    """
    axis, side = face
    out = []
    for off, s2d, kvz, _, comp in space.blocks():
        if comp == axis:
            continue
        face_axes = [ax for ax in range(2 if kvz is None else 3) if ax != axis]
        c = None if comp is None else face_axes.index(comp)
        # (dof term, local knot vectors) of the 2D anchors and of the vertical functions
        on = np.arange(s2d.dim)
        vertical = [(0, ())]
        if kvz is not None:
            ks = kvz.knots
            vertical = [(i * s2d.dim, (ks[i : i + kvz.degree + 2],)) for i in range(kvz.n)]
        if axis < 2:  # clamped on the rank arrays: rank 0 is the value 0, the last rank 1
            R, q = s2d.ranks[axis], s2d.degrees[axis]
            on = np.flatnonzero(R[:, q] == 0 if side == 0 else R[:, 1] == len(s2d.mesh.line_values[axis]) - 1)
        else:  # on an open knot vector only the first function reaches side 0, the last side 1
            vertical = [vertical[-side]]
        keys = [(np.array(v, dtype=object)[R[on]]).tolist() for R, v in zip(s2d.ranks, s2d.mesh.line_values)]
        planar = [(d, (tuple(k1), tuple(k2))) for d, k1, k2 in zip(on.tolist(), *keys)]
        for d2, k2 in planar:
            for dz, kz in vertical:
                k = k2 + kz
                out.append((off + dz + d2, c, tuple(k[ax] for ax in face_axes)))
    return out


def dirichlet_dofs(space, faces):
    """Constrained dof indices of a 2D or 3D space for the tagged faces."""
    return sorted({dof for face in faces for dof, _, _ in traces(space, face)})
