"""The assembled 3D curl-conforming space: the oracle of the prism drivers.

The library solves prisms on their sections (``problems``); here the 3D
space is assembled, loaded and measured on the 3D Gauss rule of each patch,
evaluating its 3D map at every point.

A 3D space is a 2D T-spline complex times a 1D spline direction; its
component blocks are ordered (c1, c2, c3), the 2D anchor index fastest in
each.  Each function is a sum of terms (2D factor) x (z factor) in one
component (``_TERMS``).  All cells (2D element, z-span), z-span fastest,
are one batch: their padded dof rows and reference tables are outer
products of the batched 2D tables (``TsplineSpace.element_tables``) and
the z tables (:func:`_z_tables`).  The values are component tables, one
per block, and the mass is the component-block kernel of ``assembly``
on them; the curl-curl is :func:`_bilinear` on the curls, whose functions
have two components each.
"""

import math
from dataclasses import dataclass

import numpy as np

from splinecomplex import problems
from splinecomplex.assembly import (
    _csr,
    _element_matrices,
    _pairs,
    _rules_2d,
    _shared_elements,
    _shared_patterns,
    _span_rule,
    _weights,
    gauss_points_1d,
)
from splinecomplex.bspline import KnotVector, grad_matrix_1d, scaled_eval
from splinecomplex.complexes import extrude_operators
from splinecomplex.geometry import apply_pullback, apply_pushforward
from splinecomplex.multipatch import PatchSet, build_glue, global_operator
from splinecomplex.tspline import TsplineComplex


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
        return extrude_operators(t.operators["grad"], t.operators["rot"], t.Y1[0].dim, grad_matrix_1d(self.kv_z))


@dataclass
class Scalar3D:
    """Scalar 3D space (X0): a 2D scalar space tensor a vertical direction."""

    cx3: Complex3D

    @property
    def dim(self):
        return self.cx3.tcx.space_dim(0) * self.cx3.kv_z.n

    def blocks(self):
        return ((0, self.cx3.tcx.Y0, self.cx3.kv_z, "B", None),)


# Per table (values, curls) and block m, the terms sign * (2D factor) x (z
# factor) in one component of f e_m or of its reference curl: (component,
# 2D factor table "value", "dx" or "dy"; z factor 0 value, 1 d/dz; sign).
_TERMS = (
    (((0, "value", 0, 1),), ((1, "value", 0, 1),), ((2, "value", 0, 1),)),
    (
        ((1, "value", 1, 1), (2, "dy", 0, -1)),
        ((0, "value", 1, -1), (2, "dx", 0, 1)),
        ((0, "dy", 0, 1), (1, "dx", 0, -1)),
    ),
)


def _z_tables(kv: KnotVector, scaling, order):
    """The functions of ``kv`` active on each of its spans (nzs, q+1) and
    their values and derivatives (2, nzs, order, q+1) at its Gauss points."""
    rows, spans = kv.local_rows, np.array(kv.spans(), dtype=float)
    args = (rows, kv.degree, scaling, _span_rule(kv, order)[0])
    Z = np.stack([scaled_eval(*args), scaled_eval(*args, 1)]).reshape(2, len(spans), order, kv.n)
    act = np.array([np.flatnonzero((rows.knots[:, 0] < zb) & (rows.knots[:, -1] > za)) for za, zb in spans])
    return act, np.take_along_axis(Z, act[None, :, None, :], axis=3)


def _rules_3d(cx3, order):
    """Tensor Gauss rules of all cells (2D element, z-span) of one patch,
    z-span fastest: points (ncell, npts, 3), 2D point index slowest, and
    weights (ncell, npts)."""
    P2, W2 = _rules_2d(_shared_elements(cx3.tcx.Y0, *cx3.tcx.Y1), order)
    Z = np.array(cx3.kv_z.spans(), dtype=float)
    pz, wz = gauss_points_1d(Z[:, :1], Z[:, 1:], order)
    P = np.empty((len(P2), len(Z), P2.shape[1], order, 3))
    P[..., :2], P[..., 2] = P2[:, None, :, None, :], pz[None, :, None, :]
    W = W2[:, None, :, None] * wz[None, :, None, :]
    return P.reshape(len(P2) * len(Z), -1, 3), W.reshape(len(P2) * len(Z), -1)


def _cell_tables(cx3, order, curl=False):
    """The padded dof rows (ncell, ndof) of all cells in the order of
    :func:`_rules_3d`, block by block with the 2D anchor slowest, and their
    reference tables: the values as component tables (start, (ncell,
    ndof_m, npts)), one per block m (``assembly._space_tables``), or with
    ``curl`` the curls (ncell, ndof, npts, 3)."""
    rows, terms = [], []
    for m, (off, s2d, kvz, zscal, _) in enumerate(cx3.blocks()):
        names = sorted({xy for _, xy, _, _ in _TERMS[curl][m]})  # only the 2D tables the terms read
        act, *tabs = s2d.element_tables(order, *names)
        tabs = dict(zip(names, tabs))
        actz, Z = _z_tables(kvz, zscal, order)  # kvz and its derived vector share the z-spans
        dofs = off + actz[None, :, None, :] * s2d.dim + act[:, None, :, None]  # (element, z-span, anchor, z function)
        rows.append(np.where(act[:, None, :, None] >= 0, dofs, -1).reshape(*dofs.shape[:2], -1))
        terms.append([(comp, sign * tabs[xy], Z[z]) for comp, xy, z, sign in _TERMS[curl][m]])
    ends = np.cumsum([r.shape[2] for r in rows])
    dofs = np.concatenate(rows, axis=2).reshape(-1, ends[-1])

    def product(XY, Z):  # (ncell, anchor and z function, 2D point and z point)
        return np.einsum("eaq,szk->esakqz", XY, Z).reshape(len(dofs), XY.shape[1] * Z.shape[2], -1)

    if not curl:
        return dofs, tuple((int(end - r.shape[2]), product(XY, Z)) for end, r, ((_, XY, Z),) in zip(ends, rows, terms))
    T = np.zeros((len(dofs), ends[-1], order**3, 3))
    for end, r, block in zip(ends, rows, terms):
        for comp, XY, Z in block:  # each term fills its own component
            T[:, end - r.shape[2] : end, :, comp] = product(XY, Z)
    return dofs, T


def _bilinear(V, Gw):
    """sum_q V[e,a,q,:] Gw[e,q] V[e,b,q,:]^T of every element e, one BLAS
    product each; V has shape (nel, ndof, npts, c), Gw (nel, npts, c, c).
    ``A`` is rebound to its (e, a, q * c) copy, so the (e, q, a, i) product
    is freed before the last product."""
    A = np.matmul(V.transpose(0, 2, 1, 3), np.swapaxes(Gw, -1, -2))  # (e, q, a, i)
    A = A.transpose(0, 2, 1, 3).reshape(*V.shape[:2], -1)
    return A @ np.swapaxes(V.reshape(*V.shape[:2], -1), -1, -2)


def assemble_matrix_3d(cx3: Complex3D, geom, kind):
    """'mass' or 'curlcurl' on the curl-conforming space of one patch, all
    cells in one batched kernel: the component blocks of
    ``assemble_matrix_2d`` for the mass, :func:`_bilinear` for the curls."""
    curl, j = {"mass": (False, 1), "curlcurl": (True, 2)}[kind]  # (curl table?, form degree)
    order = cx3.tcx.degree + 1
    dofs, T = _cell_tables(cx3, order, curl)
    Gw = _weights(geom, _rules_3d(cx3, order), j)
    E = _bilinear(T, Gw) if curl else _element_matrices(T, Gw, dofs.shape[1])
    return _csr(cx3, cx3.dim, dofs, E[_pairs(dofs)])


def assemble_load_3d(cx3: Complex3D, geom, f):
    """Load vector int f . v for the curl-conforming space of one patch."""
    order = cx3.tcx.degree + 2
    P, W = _rules_3d(cx3, order)
    X, J, det = geom.eval_jacobian_dets(P.reshape(-1, 3))
    fhat = (apply_pullback(2, J, det, np.asarray(f(X))) * W.reshape(-1, 1)).reshape(*P.shape[:2], 3)
    dofs, comps = _cell_tables(cx3, order)
    vals = np.concatenate([np.einsum("caq,cq->ca", V, fhat[..., m]) for m, (_, V) in enumerate(comps)], axis=1)
    return np.bincount(dofs[dofs >= 0], weights=vals[dofs >= 0], minlength=cx3.dim)


def hcurl_error_3d(cx3: Complex3D, geom, coeffs, u_exact, curlu_exact):
    """H(curl) error (l2_err, curl_err) of a discrete field against
    closed-form references, by quadrature on the extended mesh of one patch."""
    order = cx3.tcx.degree + 2
    P, W = _rules_3d(cx3, order)
    X, J, det = geom.eval_jacobian_dets(P.reshape(-1, 3))
    errors = []
    for j, exact in ((1, u_exact), (2, curlu_exact)):
        dofs, T = _cell_tables(cx3, order, curl=j == 2)
        c = np.where(dofs >= 0, np.asarray(coeffs)[dofs], 0.0)
        if j == 1:  # one component per block
            field = np.stack([np.einsum("caq,ca->cq", V, c[:, s : s + V.shape[1]]) for s, V in T], axis=-1)
        else:
            field = np.einsum("caqi,ca->cqi", T, c)
        d = apply_pushforward(j, J, det, field.reshape(-1, 3)) - np.asarray(exact(X))
        errors.append(math.sqrt(np.sum(W.ravel() * det * np.sum(d * d, axis=1))))
    return tuple(errors)


def system_3d(ps, walls, kinds):
    """``problems._system`` on 3D patches: (glue, matrices, free dofs), each
    kind assembled on every patch, glued, and the dofs on the walls found."""
    glue = build_glue(ps) if ps.npatches > 1 or ps.interfaces else None
    matrices = []
    with _shared_patterns():
        for kind in kinds:
            local = [assemble_matrix_3d(space, geom, kind) for space, geom in zip(ps.spaces, ps.geoms)]
            matrices.append(glue.global_matrix(local) if glue else local[0])
    return glue, matrices, problems._free(ps, glue, walls, matrices[0].shape[0])


def gradient_kernel(ps, glue, walls, free):
    """The exact kernel of the curl-curl (or rot-rot) matrix of ``ps``: the
    gradient of each patch space's scalar space (``space.gradient()``),
    glued like ``ps``, with rows restricted to the free dofs ``free`` and
    columns to the scalar dofs off the same walls."""
    scalars, grads = zip(*(space.gradient() for space in ps.spaces))
    ps0 = PatchSet(ps.geoms, scalars, ps.interfaces)
    glue0 = None if glue is None else build_glue(ps0)
    G = grads[0] if glue0 is None else global_operator(glue0, glue, grads)
    return G.tocsr()[free][:, problems._free(ps0, glue0, walls, G.shape[1])]
