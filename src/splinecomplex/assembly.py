"""Galerkin assembly on (extended) T-meshes and tensor 3D spaces.

Integration runs element by element over the positive-area faces of the
extended mesh (times nonempty knot spans in the third direction), with
tensor Gauss rules of order degree+1 per direction; zero-measure elements
contribute nothing and are skipped.

Every matrix is one element kernel, sum_q T_q W_q T_q^T, and its kind picks
both factors:

* the dof table T, shape (ndof, npts, c): the reference values of the space
  for 'mass'; the reference values of its exterior derivative (grad, rot,
  curl) for 'gradgrad', 'rotrot' and 'curlcurl';
* the form degree j of the integrand: the space's own (Scalar2D 0,
  Vector2D and Complex3D 1) for 'mass', one more for the derivative kinds;
  W is the weight of the degree-j pullback (:func:`pullback_weight`): det J
  for j=0, J^-1 J^-T det J for j=1, J^T J / det J for j=2 in 3D, 1 / det J
  for the top form.

Loads and the H(curl) error contract the same 3D tables with the pulled-back
source and push the discrete field forward (:func:`apply_pullback`,
:func:`apply_pushforward`).

Per patch and quadrature rule, the Gauss points of all cells form one
record, shape (ncell, npts, d): the geometry (J, det J, the physical points)
and the pullback weights are evaluated once on it and sliced per cell.  The
element blocks of a matrix go into a CSR pattern built once per element set
(sorted ``indptr``/``indices`` plus the slot of every block entry in
``data``), so each kind is one ``np.bincount`` over the slots; inside
:func:`_shared_patterns` every kind and every patch on the same spaces
reuses it.

Three-dimensional spaces combine a 2D T-spline complex with a 1D spline
direction; component coefficient blocks are ordered (c1, c2, c3) with the
2D anchor index running fastest inside each block.

Every space type (Scalar2D, Vector2D, Scalar3D, Complex3D) describes itself
by ``blocks()``: per component block, (dof offset, 2D T-spline space,
vertical knot vector or None, vertical scaling, reference component or
None for scalars); dof ``offset + iz * dim2d + anchor``.  :func:`traces`
enumerates from it the functions with a nonzero tangential trace on a
face, which is all the Dirichlet walls, the port map and the interface
glue of :mod:`splinecomplex.multipatch` read.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .bspline import KnotVector, _clamped, grad_matrix_1d, scaled_eval
from .geometry import apply_pullback, apply_pushforward, pullback_weight
from .tmesh import TsplineSpace
from .tspline import TsplineComplex

__all__ = [
    "gauss_points_1d",
    "gauss_points_2d",
    "Scalar2D",
    "Vector2D",
    "Complex3D",
    "Scalar3D",
    "assemble_matrix_2d",
    "assemble_matrix_3d",
    "assemble_load_3d",
    "assemble_port_boundary",
    "dirichlet_dofs",
    "hcurl_error_3d",
    "traces",
]

_GAUSS_CACHE = {}


def _leggauss(n):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = leggauss(n)
    return _GAUSS_CACHE[n]


def gauss_points_1d(a, b, order):
    gx, gw = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * gx, half * gw


def gauss_points_2d(box, order):
    P, W = _rules_2d([box], order)
    return P[0], W[0]


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
    """Rot-conforming vector 2D space: components (D x B, B x D), the Y1 of
    the T-spline complex ``tcx`` it is built from."""

    c1: TsplineSpace
    c2: TsplineSpace
    tcx: TsplineComplex

    @property
    def dim(self):
        return self.c1.dim + self.c2.dim

    @classmethod
    def from_complex(cls, tcx: TsplineComplex) -> "Vector2D":
        return cls(tcx.Y1[0], tcx.Y1[1], tcx)

    def gradient(self):
        """The exact gradient: the scalar space Y0 and grad: Y0 -> Y1, whose
        image is the kernel of rot."""
        return Scalar2D(self.tcx.Y0), self.tcx.operators["grad"]

    def elements(self):
        return _shared_elements(self.c1, self.c2)

    def blocks(self):
        return ((0, self.c1, None, None, 0), (self.c1.dim, self.c2, None, None, 1))


def _shared_elements(*spaces):
    """The integration elements common to spaces assembled in one loop."""
    boxes = spaces[0].elements
    if any(s.elements != boxes for s in spaces[1:]):
        raise ValueError("component spaces have different extended meshes")
    return boxes


# -- the element kernel -------------------------------------------------------------


def _kind(space, kind):
    """(derivative table?, form degree j of the integrand) of a matrix kind."""
    form, deriv_kind = _FORMS[type(space)]
    if kind == "mass":
        return False, form
    if kind == deriv_kind:
        return True, form + 1
    raise ValueError(f"unknown kind {kind!r} for {type(space).__name__}")


def _bilinear(V, Gw):
    """sum_q V[a,q,:] Gw[q] V[b,q,:]^T as one BLAS product; V has shape
    (ndof, npts, c), Gw (npts, c, c)."""
    nq, c = Gw.shape[0], Gw.shape[-1]
    GV = np.matmul(V.transpose(1, 0, 2), Gw.transpose(0, 2, 1))  # (q, a, i)
    A = GV.transpose(1, 0, 2).reshape(V.shape[0], nq * c)
    B = V.reshape(V.shape[0], nq * c)
    return A @ B.T


_PATTERNS = None  # pattern per element set while _shared_patterns() is open


@contextmanager
def _shared_patterns():
    """Matrices assembled inside the block on the same element dof lists
    share one sparsity pattern; it is dropped on exit."""
    global _PATTERNS
    outer, _PATTERNS = _PATTERNS, {}
    try:
        yield
    finally:
        _PATTERNS = outer


def _pattern(space, n, dofs):
    """CSR pattern of the element blocks dofs x dofs: (indptr, indices,
    slot), slot the position in ``data`` of each block entry, blocks in
    element order and row-major.  The element dof lists are fixed by the 2D
    spaces (and the vertical knot vector), which key the shared patterns."""
    if isinstance(space, Complex3D):
        key = (space.tcx.Y0, *space.tcx.Y1, space.kv_z)
    else:
        key = (space.space,) if isinstance(space, Scalar2D) else (space.c1, space.c2)
    if _PATTERNS is not None and key in _PATTERNS:
        return _PATTERNS[key]
    sizes = np.array([d.size for d in dofs])
    E = sp.csr_matrix((np.ones(sizes.sum()), np.concatenate(dofs), np.r_[0, np.cumsum(sizes)]), shape=(len(dofs), n))
    A = (E.T @ E).tocsr()  # the dof pairs sharing an element
    A.sort_indices()
    flat = np.repeat(np.arange(n), np.diff(A.indptr)) * n + A.indices  # sorted row * n + col
    slot, ends = np.empty((sizes**2).sum(), dtype=np.intp), np.cumsum(sizes**2)
    for d, end in zip(dofs, ends):
        slot[end - d.size**2 : end] = np.searchsorted(flat, (d[:, None] * n + d[None, :]).ravel())
    pattern = (A.indptr, A.indices, slot)
    if _PATTERNS is not None:
        _PATTERNS[key] = pattern
    return pattern


def _matrix(space, n, rule, tables, geom, j):
    """Sum the element kernels of one patch, (dofs, table) per cell from
    ``tables``, into an n x n CSR matrix.  The degree-j pullback weight is
    computed once at the points (ncell, npts, d) of ``rule`` = (points,
    weights) and sliced per cell."""
    P, W = rule
    J, det = geom.jacobian_dets(P.reshape(-1, P.shape[-1]))
    G = pullback_weight(j, J, det, W.ravel())
    G = G.reshape(*W.shape, *G.shape[1:])
    dofs, blocks = [], []
    for (idx, T), Gk in zip(tables, G):
        dofs.append(idx)
        blocks.append(_bilinear(T, Gk).ravel())
    indptr, indices, slot = _pattern(space, n, dofs)
    data = np.bincount(slot, weights=np.concatenate(blocks), minlength=indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))  # copies: the pattern is shared


# -- 2D assembly -----------------------------------------------------------------


def _dof_tables_2d(space, e, order, deriv):
    """Dofs of element ``e`` and their reference values, or with ``deriv``
    their reference grads (Scalar2D) or rots (Vector2D), shape
    (ndof, npts, c)."""
    if isinstance(space, Scalar2D):
        act, v, dx, dy = space.space.element_table(e, order, derivs=deriv)
        return act, np.stack([dx.T, dy.T], axis=-1) if deriv else v.T[:, :, None]
    parts = [S.element_table(e, order, derivs=deriv) for S in (space.c1, space.c2)]
    idx = np.concatenate([parts[0][0], space.c1.dim + parts[1][0]])
    T = np.zeros((idx.size, order**2, 1 if deriv else 2))
    start = 0
    for m, (act, v, dx, dy) in enumerate(parts):
        blk = T[start : start + act.size]
        start += act.size
        if deriv:  # rot (f, 0) = -df/dy, rot (0, g) = dg/dx
            blk[:, :, 0] = -dy.T if m == 0 else dx.T
        else:
            blk[:, :, m] = v.T
    return idx, T


def assemble_matrix_2d(space, geom, kind, order=None):
    """Sparse symmetric Galerkin matrix on one 2D patch: 'mass' and
    'gradgrad' on Scalar2D, 'mass' and 'rotrot' on Vector2D."""
    deriv, j = _kind(space, kind)
    degrees = space.space.degrees if isinstance(space, Scalar2D) else space.c1.degrees
    order = order or max(degrees) + 1
    boxes = space.elements()
    tables = (_dof_tables_2d(space, e, order, deriv) for e in range(len(boxes)))
    return _matrix(space, space.dim, _rules_2d(boxes, order), tables, geom, j)


# -- 3D tensor spaces ---------------------------------------------------------------


@dataclass
class Complex3D:
    """Tensor product of a 2D T-spline complex with a 1D spline direction."""

    tcx: TsplineComplex
    kv_z: KnotVector

    def __post_init__(self):
        if self.kv_z.degree != self.tcx.degree:
            raise ValueError("vertical degree must match the horizontal complex")

    @property
    def nz(self):
        return self.kv_z.n

    def space_dims(self):
        t = self.tcx
        nz, nzd = self.nz, self.nz - 1
        return {
            0: t.space_dim(0) * nz,
            1: (t.Y1[0].dim + t.Y1[1].dim) * nz + t.space_dim(0) * nzd,
            2: (t.Y1[0].dim + t.Y1[1].dim) * nzd + t.space_dim(2) * nz,
            3: t.space_dim(2) * nzd,
        }

    @property
    def dim(self):
        return self.space_dims()[1]

    def blocks(self):
        """The X1 components (c1, c2, c3): 2D space times vertical factor."""
        t, kvd = self.tcx, self.kv_z.derived()
        parts = ((t.Y1[0], self.kv_z, "B"), (t.Y1[1], self.kv_z, "B"), (t.Y0, kvd, "D"))
        offs = np.cumsum([0] + [s2d.dim * kvz.n for s2d, kvz, _ in parts])
        return tuple((int(off), *part, m) for m, (off, part) in enumerate(zip(offs, parts)))

    def gradient(self):
        """The exact gradient: the scalar space X0 and grad: X0 -> X1, whose
        image is the kernel of curl."""
        return Scalar3D(self), self.operators()["grad"]

    def operators(self):
        """grad, curl, div as float matrices (Kronecker combinations)."""
        t = self.tcx
        ops = t.operators
        n0, n2 = t.space_dim(0), t.space_dim(2)
        n11, n12 = t.Y1[0].dim, t.Y1[1].dim
        Gz = grad_matrix_1d(self.kv_z)
        Iz = sp.identity(self.nz, format="csr")
        Izd = sp.identity(self.nz - 1, format="csr")
        G1, G2 = ops["grad"][:n11], ops["grad"][n11:]
        R1, R2 = -ops["rot"][:, :n11], ops["rot"][:, n11:]
        grad = sp.vstack(
            [sp.kron(Iz, G1), sp.kron(Iz, G2), sp.kron(Gz, sp.identity(n0, format="csr"))]
        ).tocsr()
        z12 = sp.csr_matrix((n12 * (self.nz - 1), n11 * self.nz))
        z21 = sp.csr_matrix((n11 * (self.nz - 1), n12 * self.nz))
        curl = sp.vstack(
            [
                sp.hstack([z12, -sp.kron(Gz, sp.identity(n12)), sp.kron(Izd, G2)]),
                sp.hstack([sp.kron(Gz, sp.identity(n11)), z21, -sp.kron(Izd, G1)]),
                sp.hstack([sp.kron(Iz, -R1), sp.kron(Iz, R2), sp.csr_matrix((n2 * self.nz, n0 * (self.nz - 1)))]),
            ]
        ).tocsr()
        div = sp.hstack(
            [sp.kron(Izd, R2), sp.kron(Izd, R1), sp.kron(Gz, sp.identity(n2))]
        ).tocsr()
        return {"grad": grad, "curl": curl, "div": div}


@dataclass
class Scalar3D:
    """Scalar 3D space (X0): a 2D scalar space tensor a vertical direction."""

    cx3: Complex3D

    @property
    def dim(self):
        return self.cx3.tcx.space_dim(0) * self.cx3.kv_z.n

    def blocks(self):
        return ((0, self.cx3.tcx.Y0, self.cx3.kv_z, "B", None),)


# Per space type: its form degree and the kind built on its derivative table.
_FORMS = {Scalar2D: (0, "gradgrad"), Vector2D: (1, "rotrot"), Complex3D: (1, "curlcurl")}


def _z_elements(kv: KnotVector):
    return [(float(a), float(b)) for a, b in kv.spans()]


def _z_tables(kv: KnotVector, scaling, spans, order):
    """Per z-span: the indices of the functions of ``kv`` active on it and
    their values and derivatives (order, nact) at its Gauss points, sliced
    from one batched evaluation of all functions at all spans' points."""
    rows = kv.local_rows
    x = np.concatenate([gauss_points_1d(za, zb, order)[0] for za, zb in spans])
    shape = (len(spans), order, kv.n)
    vals = scaled_eval(rows, kv.degree, scaling, x).reshape(shape)
    ders = scaled_eval(rows, kv.degree, scaling, x, 1).reshape(shape)
    out = []
    for s, (za, zb) in enumerate(spans):
        act = np.flatnonzero((rows.knots[:, 0] < zb) & (rows.knots[:, -1] > za))
        out.append((act, np.ascontiguousarray(vals[s][:, act]), np.ascontiguousarray(ders[s][:, act])))
    return out


def _x1_tables(cx3: Complex3D, order):
    """The tabulation of one patch's X1 space: the Gauss rule of all its
    cells (element, z-span), the cells, and per block (dof offset, 2D space,
    z tables), with the 2D caches filled."""
    zspans = _z_elements(cx3.kv_z)
    blocks = []
    for off, s2d, kvz, zscal, _ in cx3.blocks():
        s2d.factor_tables(order)
        blocks.append((off, s2d, _z_tables(kvz, zscal, zspans, order)))
    boxes = _shared_elements(cx3.tcx.Y0, cx3.tcx.Y1[0], cx3.tcx.Y1[1])
    cells = [(e, s) for e in range(len(boxes)) for s in range(len(zspans))]
    return _rules_3d(boxes, zspans, order), cells, blocks


def _rules_3d(boxes, zspans, order):
    """Tensor Gauss rules of all 3D cells (box, z-span), z-span fastest:
    points (ncell, npts, 3), 2D point index slowest, and weights."""
    P2, W2 = _rules_2d(boxes, order)
    Z = np.asarray(zspans, dtype=float)
    pz, wz = gauss_points_1d(Z[:, :1], Z[:, 1:], order)
    P = np.empty((len(P2), len(Z), P2.shape[1], order, 3))
    P[..., :2], P[..., 2] = P2[:, None, :, None, :], pz[None, :, None, :]
    W = W2[:, None, :, None] * wz[None, :, None, :]
    return P.reshape(len(P2) * len(Z), -1, 3), W.reshape(len(P2) * len(Z), -1)


def _block_dofs(off, s2d, act2, actz):
    """X1 dofs of one block on one element, 2D anchor slowest."""
    return (off + actz[None, :] * s2d.dim + act2[:, None]).ravel()


def _outer(a, b):
    """Products a[p, i] b[q, j] as (i*j, p*q): 2D-by-z dof and point order."""
    return (a.T[:, None, :, None] * b.T[None, :, None, :]).reshape(a.shape[1] * b.shape[1], -1)


# Reference curl of f e_m, block m: (component, derivative of f, sign).
_CURL = (((1, "z", 1), (2, "y", -1)), ((0, "z", -1), (2, "x", 1)), ((0, "y", 1), (1, "x", -1)))


def _dof_tables_3d(blocks, e, s, order, *curls):
    """Dofs of element (e, z-span s) and, per flag of ``curls``, their
    reference values (False) or reference curls (True), shape (ndof, npts,
    3), from outer products of one tabulation of the 2D element tables and
    the z tables."""
    dofs, parts = [], []
    for off, s2d, ztab in blocks:
        act2, v2, dx2, dy2 = s2d.element_table(e, order, derivs=any(curls))
        actz, vz, dz = ztab[s]
        dofs.append(_block_dofs(off, s2d, act2, actz))
        parts.append({"f": (v2, vz), "x": (dx2, vz), "y": (dy2, vz), "z": (v2, dz)})
    idx = np.concatenate(dofs)
    tables = []
    for curl in curls:
        T = np.zeros((idx.size, order**3, 3))
        start = 0
        for m, (block, part) in enumerate(zip(dofs, parts)):
            blk = T[start : start + block.size]
            start += block.size
            for comp, d, sign in _CURL[m] if curl else ((m, "f", 1),):
                blk[:, :, comp] = sign * _outer(*part[d])
        tables.append(T)
    return (idx, *tables)


def assemble_matrix_3d(cx3: Complex3D, geom, kind, order=None):
    """'mass' or 'curlcurl' on the curl-conforming 3D space of one patch."""
    deriv, j = _kind(cx3, kind)
    order = order or cx3.tcx.degree + 1
    rule, cells, blocks = _x1_tables(cx3, order)
    tables = (_dof_tables_3d(blocks, e, s, order, deriv) for e, s in cells)
    return _matrix(cx3, cx3.dim, rule, tables, geom, j)


def assemble_load_3d(cx3: Complex3D, geom, f, order=None):
    """Load vector int f . v for the curl-conforming space of one patch."""
    order = order or cx3.tcx.degree + 2
    (P, W), cells, blocks = _x1_tables(cx3, order)
    P = P.reshape(-1, 3)
    J, det = geom.jacobian_dets(P)
    fhat = apply_pullback(2, J, det, np.asarray(f(geom.eval(P)))) * W.reshape(-1, 1)
    out = np.zeros(cx3.dim)
    for (e, s), fk in zip(cells, fhat.reshape(len(cells), -1)):
        idx, T = _dof_tables_3d(blocks, e, s, order, False)
        out[idx] += T.reshape(idx.size, -1) @ fk
    return out


# -- traces: boundary conditions, interfaces, ports -----------------------------------


def traces(space, face):
    """One record (dof, c, factors) per function of ``space`` with a nonzero
    (tangential) trace on ``face`` = (axis, side), axis 2 vertical in 3D.

    A function of a block is the product of its 2D anchor's factors and, in
    3D, a vertical factor.  It reaches the face exactly when its factor
    along ``axis`` is clamped at ``side``; a component normal to the face
    has no tangential trace.  ``c`` is the index of the function's component
    among the face axes (None for scalars), and ``factors`` gives, per face
    axis in increasing order, the (local knot vector, degree, scaling) of
    the trace.  Records come block by block, 2D anchor slowest.
    """
    axis, side = face
    out = []
    for off, s2d, kvz, zscal, comp in space.blocks():
        if comp == axis:
            continue
        face_axes = [ax for ax in range(2 if kvz is None else 3) if ax != axis]
        c = None if comp is None else face_axes.index(comp)
        # (dof term, factors) of the 2D anchors and of the vertical functions
        planar = [(a.index, tuple(zip((a.lkv1, a.lkv2), s2d.degrees, s2d.scalings))) for a in s2d.anchors]
        vertical = [(0, ())]
        if kvz is not None:
            vertical = [(z.index * s2d.dim, ((z.local, kvz.degree, zscal),)) for z in kvz.anchors()]
        if axis < 2:
            planar = [(d, f) for d, f in planar if _clamped(*f[axis][:2], side)]
        else:
            vertical = [(d, f) for d, f in vertical if _clamped(*f[0][:2], side)]
        for d2, f2 in planar:
            for dz, fz in vertical:
                f = f2 + fz
                out.append((off + dz + d2, c, tuple(f[ax] for ax in face_axes)))
    return out


def dirichlet_dofs(space, faces):
    """Constrained dof indices of a 2D or 3D space for the tagged faces."""
    return sorted({dof for face in faces for dof, _, _ in traces(space, face)})


def assemble_port_boundary(cx3: Complex3D, section_mass, side):
    """Surface matrix of tangential traces on a z-port face.

    ``section_mass`` is the 2D mass matrix of the section's vector space
    ``Vector2D.from_complex(cx3.tcx)``.  Returns (B, trace_map): trace_map
    are the 3D dofs of the traces on the face (2, side), in the Vector2D
    ordering of the section; B is the full-size 3D sparse matrix of
    int (n x E).(n x G) over the port, that mass matrix scattered to them.
    """
    tmap = np.array([dof for dof, _, _ in traces(cx3, (2, side))])
    M2 = section_mass.tocoo()
    B = sp.coo_matrix((M2.data, (tmap[M2.row], tmap[M2.col])), shape=(cx3.dim, cx3.dim)).tocsr()
    return B, tmap


# -- error evaluation ----------------------------------------------------------------


def hcurl_error_3d(cx3: Complex3D, geom, coeffs, u_exact, curlu_exact, order=None):
    """H(curl) error of a discrete field against closed-form references.

    Returns (l2_err, curl_err) accumulated by quadrature on the extended
    mesh of one patch.
    """
    order = order or cx3.tcx.degree + 2
    coeffs = np.asarray(coeffs)
    (P, W), cells, blocks = _x1_tables(cx3, order)
    u_h, curl_h = np.empty((2, *P.shape))
    for k, (e, s) in enumerate(cells):
        idx, V, C = _dof_tables_3d(blocks, e, s, order, False, True)
        c = coeffs[idx]
        u_h[k] = (c @ V.reshape(idx.size, -1)).reshape(-1, 3)
        curl_h[k] = (c @ C.reshape(idx.size, -1)).reshape(-1, 3)
    P = P.reshape(-1, 3)
    J, det = geom.jacobian_dets(P)
    X = geom.eval(P)
    du = apply_pushforward(1, J, det, u_h.reshape(-1, 3)) - np.asarray(u_exact(X))
    dc = apply_pushforward(2, J, det, curl_h.reshape(-1, 3)) - np.asarray(curlu_exact(X))
    wdet = W.ravel() * det
    return math.sqrt(np.sum(wdet * np.sum(du * du, axis=1))), math.sqrt(np.sum(wdet * np.sum(dc * dc, axis=1)))
