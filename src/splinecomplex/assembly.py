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

Three-dimensional spaces combine a 2D T-spline complex with a 1D spline
direction; component coefficient blocks are ordered (c1, c2, c3) with the
2D anchor index running fastest inside each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .bspline import KnotVector, grad_matrix_1d, scaled_eval
from .geometry import apply_pullback, apply_pushforward, pullback_weight
from .tmesh import TsplineSpace
from .tspline import TsplineComplex

__all__ = [
    "gauss_points_1d",
    "gauss_points_2d",
    "Scalar2D",
    "Vector2D",
    "Complex3D",
    "assemble_matrix_2d",
    "assemble_matrix_3d",
    "assemble_load_3d",
    "assemble_port_boundary",
    "dirichlet_dofs",
    "hcurl_error_3d",
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
    x1, y1, x2, y2 = box
    px, wx = gauss_points_1d(x1, x2, order)
    py, wy = gauss_points_1d(y1, y2, order)
    pts = np.stack(np.meshgrid(px, py, indexing="ij"), axis=-1).reshape(-1, 2)
    w = np.outer(wx, wy).reshape(-1)
    return pts, w


# -- space wrappers ------------------------------------------------------------


def _clamped_lkv(lkv, degree, side) -> bool:
    if side == 0:
        return lkv[degree] == lkv[0] == 0
    return lkv[1] == lkv[-1] == 1


def _clamped_anchors(space: TsplineSpace, axis, side):
    """Indices of the anchors clamped across the face (axis, side)."""
    return [a.index for a in space.anchors if _clamped_lkv((a.lkv1, a.lkv2)[axis], space.degrees[axis], side)]


def _clamped_z(kvz: KnotVector, side):
    """Indices of the vertical functions clamped at the z-face ``side``."""
    ks, p = kvz.knots, kvz.degree
    return [i for i in range(kvz.n) if _clamped_lkv(tuple(ks[i : i + p + 2]), p, side)]


def _clamped_block(off, s2d, kvz, axis, side):
    """Dofs ``off + iz * s2d.dim + a`` of a 2D-by-vertical block clamped
    across the face (axis, side), axis 2 the vertical direction."""
    if axis == 2:
        return [off + iz * s2d.dim + a for iz in _clamped_z(kvz, side) for a in range(s2d.dim)]
    return [off + iz * s2d.dim + a for a in _clamped_anchors(s2d, axis, side) for iz in range(kvz.n)]


@dataclass
class Scalar2D:
    """Scalar 2D space (form degree 0) over one T-spline space."""

    space: TsplineSpace

    @property
    def dim(self):
        return self.space.dim

    def elements(self):
        return self.space.elements

    def clamped_dofs(self, face):
        return _clamped_anchors(self.space, *face)


@dataclass
class Vector2D:
    """Rot-conforming vector 2D space: components (D x B, B x D)."""

    c1: TsplineSpace
    c2: TsplineSpace

    @property
    def dim(self):
        return self.c1.dim + self.c2.dim

    @classmethod
    def from_complex(cls, tcx: TsplineComplex) -> "Vector2D":
        return cls(tcx.Y1[0], tcx.Y1[1])

    def elements(self):
        return _shared_elements(self.c1, self.c2)

    def clamped_dofs(self, face):
        """Dofs with nonzero tangential trace on the face: the tangential
        component is the one along the face, clamped across it."""
        axis, side = face
        comp = 1 - axis  # tangential component index
        space = (self.c1, self.c2)[comp]
        off = 0 if comp == 0 else self.c1.dim
        return [off + a for a in _clamped_anchors(space, axis, side)]


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


def _matrix(cells, geom, j, n):
    """Sum the element kernels of ``cells``, each (points, weights, dofs,
    table), weighted by the degree-j pullback, into an n x n CSR matrix."""
    out = []
    for P, w, idx, T in cells:
        J, det = geom.jacobian_dets(P)
        out.append((idx, _bilinear(T, pullback_weight(j, J, det, w))))
    return _merge_coo(out, n)


def _merge_coo(results, n):
    """Sum element matrices into one CSR matrix, duplicates in element order.
    Triplets go straight into preallocated arrays with 32-bit indices."""
    nnz = sum(M.size for _, M in results)
    rows, cols, vals = np.empty(nnz, np.int32), np.empty(nnz, np.int32), np.empty(nnz)
    pos = 0
    for idx, M in results:
        sl = slice(pos, pos + M.size)
        rows[sl] = np.repeat(idx, len(idx))
        cols[sl] = np.tile(idx, len(idx))
        vals[sl] = M.reshape(-1)
        pos += M.size
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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
    cells = (
        (*gauss_points_2d(box, order), *_dof_tables_2d(space, e, order, deriv))
        for e, box in enumerate(space.elements())
    )
    return _matrix(cells, geom, j, space.dim)


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

    def x1_blocks(self):
        """(2D space, z knot vector, z scaling) per X1 component."""
        kvd = self.kv_z.derived()
        return (
            (self.tcx.Y1[0], self.kv_z, "B"),
            (self.tcx.Y1[1], self.kv_z, "B"),
            (self.tcx.Y0, kvd, "D"),
        )

    def x1_dim(self):
        return self.space_dims()[1]

    def clamped_dofs(self, face):
        """X1 dofs with nonzero tangential trace on the face (axis 2 is the
        vertical direction): the tangential components, clamped across it."""
        axis, side = face
        out = []
        for m, (off, (s2d, kvz, _)) in enumerate(zip(self.x1_offsets(), self.x1_blocks())):
            if m != axis:  # the normal component is unconstrained
                out.extend(_clamped_block(off, s2d, kvz, axis, side))
        return out

    def x1_offsets(self):
        b = self.x1_blocks()
        sizes = [s.dim * kv.n for (s, kv, _) in b]
        return np.concatenate([[0], np.cumsum(sizes)])

    def operators(self):
        """grad, curl, div as float matrices (Kronecker combinations)."""
        t = self.tcx
        oi, dens = t.operators_int, t.denominators
        n0, n2 = t.space_dim(0), t.space_dim(2)
        n11, n12 = t.Y1[0].dim, t.Y1[1].dim
        Gz = grad_matrix_1d(self.kv_z)
        Iz = sp.identity(self.nz, format="csr")
        Izd = sp.identity(self.nz - 1, format="csr")
        G1 = oi["grad"][:n11] / dens["grad"]
        G2 = oi["grad"][n11:] / dens["grad"]
        R1 = -oi["rot"][:, :n11] / dens["rot"]
        R2 = oi["rot"][:, n11:] / dens["rot"]
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
    """The tabulation of one patch's X1 space: its elements, z-spans and,
    per block, (dof offset, 2D space, z tables), with the 2D caches filled."""
    zspans = _z_elements(cx3.kv_z)
    blocks = []
    for off, (s2d, kvz, zscal) in zip(cx3.x1_offsets(), cx3.x1_blocks()):
        s2d.factor_tables(order)
        blocks.append((off, s2d, _z_tables(kvz, zscal, zspans, order)))
    boxes = _shared_elements(cx3.tcx.Y0, cx3.tcx.Y1[0], cx3.tcx.Y1[1])
    return boxes, zspans, blocks


def _rule_3d(box, zspan, order):
    """Tensor Gauss rule of one 3D element: points (npts, 3), 2D point
    index slowest, and weights."""
    pts2, w2 = gauss_points_2d(box, order)
    pz, wz = gauss_points_1d(zspan[0], zspan[1], order)
    P = np.concatenate([np.repeat(pts2, len(wz), axis=0), np.tile(pz, len(w2))[:, None]], axis=1)
    return P, (w2[:, None] * wz[None, :]).reshape(-1)


def _block_dofs(off, s2d, act2, actz):
    """X1 dofs of one block on one element, 2D anchor slowest."""
    return (off + actz[None, :] * s2d.dim + act2[:, None]).ravel()


def _outer(a, b):
    """Products a[p, i] b[q, j] as (i*j, p*q): 2D-by-z dof and point order."""
    return (a.T[:, None, :, None] * b.T[None, :, None, :]).reshape(a.shape[1] * b.shape[1], -1)


# Reference curl of f e_m, block m: (component, derivative of f, sign).
_CURL = (((1, "z", 1), (2, "y", -1)), ((0, "z", -1), (2, "x", 1)), ((0, "y", 1), (1, "x", -1)))


def _dof_tables_3d(blocks, e, s, order, curl):
    """Dofs of element (e, z-span s) and their reference values, or with
    ``curl`` their reference curls, shape (ndof, npts, 3), from outer
    products of the 2D element tables and the z tables."""
    dofs, parts = [], []
    for off, s2d, ztab in blocks:
        act2, v2, dx2, dy2 = s2d.element_table(e, order, derivs=curl)
        actz, vz, dz = ztab[s]
        dofs.append(_block_dofs(off, s2d, act2, actz))
        parts.append({"f": (v2, vz), "x": (dx2, vz), "y": (dy2, vz), "z": (v2, dz)})
    idx = np.concatenate(dofs)
    T = np.zeros((idx.size, order**3, 3))
    start = 0
    for m, (block, part) in enumerate(zip(dofs, parts)):
        blk = T[start : start + block.size]
        start += block.size
        for comp, d, sign in _CURL[m] if curl else ((m, "f", 1),):
            blk[:, :, comp] = sign * _outer(*part[d])
    return idx, T


def assemble_matrix_3d(cx3: Complex3D, geom, kind, order=None):
    """'mass' or 'curlcurl' on the curl-conforming 3D space of one patch."""
    deriv, j = _kind(cx3, kind)
    order = order or cx3.tcx.degree + 1
    boxes, zspans, blocks = _x1_tables(cx3, order)
    cells = (
        (*_rule_3d(box, zspan, order), *_dof_tables_3d(blocks, e, s, order, deriv))
        for e, box in enumerate(boxes)
        for s, zspan in enumerate(zspans)
    )
    return _matrix(cells, geom, j, cx3.x1_dim())


def assemble_load_3d(cx3: Complex3D, geom, f, order=None):
    """Load vector int f . v for the curl-conforming space of one patch."""
    order = order or cx3.tcx.degree + 2
    boxes, zspans, blocks = _x1_tables(cx3, order)
    out = np.zeros(cx3.x1_dim())
    for e, box in enumerate(boxes):
        for s, zspan in enumerate(zspans):
            P, W = _rule_3d(box, zspan, order)
            J, det = geom.jacobian_dets(P)
            fhat = apply_pullback(2, J, det, np.asarray(f(geom.eval(P)))) * W[:, None]
            idx, T = _dof_tables_3d(blocks, e, s, order, curl=False)
            out[idx] += T.reshape(idx.size, -1) @ fhat.ravel()
    return out


# -- boundary conditions -------------------------------------------------------------


def dirichlet_dofs(space, faces):
    """Constrained dof indices of a 2D or 3D space for the tagged faces."""
    return sorted({d for face in faces for d in space.clamped_dofs(face)})


# -- port boundary -----------------------------------------------------------------


def port_trace_dofs(cx3: Complex3D, side):
    """Map 2D tangential-trace dofs onto 3D dofs at a z-face.

    Returns (dof3d array aligned with the Vector2D ordering of the section).
    """
    blocks = cx3.x1_blocks()
    offs = cx3.x1_offsets()
    clamped = _clamped_z(cx3.kv_z, side)
    if not clamped:
        raise ValueError("no clamped vertical function at the port face")
    iz = clamped[-1]
    out = []
    for m in (0, 1):
        s2d = blocks[m][0]
        for a in range(s2d.dim):
            out.append(offs[m] + iz * s2d.dim + a)
    return np.asarray(out)


def assemble_port_boundary(cx3: Complex3D, section_mass, side):
    """Surface matrix of tangential traces on a z-port face.

    ``section_mass`` is the 2D mass matrix of the section's vector space
    ``Vector2D.from_complex(cx3.tcx)``.  Returns (B, trace_map): B is the
    full-size 3D sparse matrix of int (n x E).(n x G) over the port,
    realized by that mass matrix scattered to the trace dofs; trace_map are
    those 3D dofs.
    """
    tmap = port_trace_dofs(cx3, side)
    n = cx3.x1_dim()
    M2 = section_mass.tocoo()
    B = sp.coo_matrix((M2.data, (tmap[M2.row], tmap[M2.col])), shape=(n, n)).tocsr()
    return B, tmap


# -- error evaluation ----------------------------------------------------------------


def hcurl_error_3d(cx3: Complex3D, geom, coeffs, u_exact, curlu_exact, order=None):
    """H(curl) error of a discrete field against closed-form references.

    Returns (l2_err, curl_err) accumulated by quadrature on the extended
    mesh of one patch.
    """
    order = order or cx3.tcx.degree + 2
    coeffs = np.asarray(coeffs)
    boxes, zspans, blocks = _x1_tables(cx3, order)
    e_l2 = 0.0
    e_curl = 0.0
    for e, box in enumerate(boxes):
        for s, zspan in enumerate(zspans):
            P, W = _rule_3d(box, zspan, order)
            J, det = geom.jacobian_dets(P)
            idx, V = _dof_tables_3d(blocks, e, s, order, curl=False)
            _, C = _dof_tables_3d(blocks, e, s, order, curl=True)
            c = coeffs[idx]
            u_h = apply_pushforward(1, J, det, (c @ V.reshape(idx.size, -1)).reshape(-1, 3))
            curl_h = apply_pushforward(2, J, det, (c @ C.reshape(idx.size, -1)).reshape(-1, 3))
            X = geom.eval(P)
            du = u_h - np.asarray(u_exact(X))
            dc = curl_h - np.asarray(curlu_exact(X))
            e_l2 += np.sum(W * det * np.sum(du * du, axis=1))
            e_curl += np.sum(W * det * np.sum(dc * dc, axis=1))
    return math.sqrt(e_l2), math.sqrt(e_curl)
