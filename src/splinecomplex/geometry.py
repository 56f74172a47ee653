"""Spline and NURBS geometry maps, pullbacks and control complexes.

Geometry maps are tabulated densely per direction on the distinct
abscissae of the points, and the map and its exact Jacobian are products
of the row-wise tensor product of those tables with the control points;
2x2 and 3x3 inverses and determinants are closed-form.  The
four pullbacks are the composition, covariant, Piola and determinant
transforms that preserve point values, circulations, fluxes and integrals.
Unknown fields are always splines; NURBS enter through the geometry only.
Affine patches (``linear_patch``, ``affine_map``) are degree-one maps on
one element, a prism (``extrude``) is a section times a degree-one z
direction, and the control map F_C of a spline geometry is the degree-one
map on its Greville mesh through the same control points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import KnotVector, _distinct, _tensor_rows, eval_basis, eval_basis_deriv
from .complexes import DiscreteComplex, build_complex

__all__ = [
    "GeometryMap",
    "affine_map",
    "linear_patch",
    "extrude",
    "pullback",
    "apply_pullback",
    "apply_pushforward",
    "pullback_weight",
    "ControlComplex",
    "build_control_complex",
    "control_distance",
]

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GeometryMap:
    """Tensor spline or NURBS parametrization of a patch.

    Control points are stored flat in lexicographic order (direction 1
    fastest), one row per control point.  Maps compare and hash by identity.
    """

    kvs: tuple
    control_points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        object.__setattr__(self, "control_points", cp)
        ncp = int(np.prod([kv.n for kv in self.kvs]))
        if cp.shape[0] != ncp:
            raise ValueError("control point count does not match the space dimension")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (ncp,):
                raise ValueError("one weight per control point required")
            if np.any(w <= 0):
                raise ValueError("NURBS weights must be positive")
            object.__setattr__(self, "weights", w)

    @property
    def ndim(self) -> int:
        return len(self.kvs)

    @property
    def nphys(self) -> int:
        return self.control_points.shape[1]

    def _contract(self, pts: np.ndarray):
        """(X, J) at the points.  Per direction the dense basis values and
        derivatives (2, npts, n) come from the distinct abscissae; the
        (homogeneous, for NURBS) map and each derivative are one product of
        their row-wise tensor product with the control points."""
        tables = [
            _distinct(lambda x: np.stack([eval_basis(kv, x), eval_basis_deriv(kv, x)]), pts[:, d])
            for d, kv in enumerate(self.kvs)
        ]
        w = self.weights
        cp = self.control_points if w is None else np.column_stack([self.control_points * w[:, None], w])
        # k = 0 the values, k = d + 1 the derivative along d
        S = [_tensor_rows([t[int(k == d + 1)] for d, t in enumerate(tables)]) @ cp for k in range(1 + self.ndim)]
        if w is None:
            return S[0], np.stack(S[1:], axis=-1)
        den = S[0][:, -1:]
        X = S[0][:, :-1] / den
        return X, np.stack([(Sd[:, :-1] - X * Sd[:, -1:]) / den for Sd in S[1:]], axis=-1)

    def eval(self, points) -> np.ndarray:
        """Physical image of parametric points (npts, ndim) -> (npts, nphys)."""
        return self._contract(np.atleast_2d(np.asarray(points, dtype=float)))[0]

    def jacobian(self, points) -> np.ndarray:
        """Jacobian matrices (npts, nphys, ndim) by exact differentiation."""
        return self._contract(np.atleast_2d(np.asarray(points, dtype=float)))[1]

    def jacobian_dets(self, points):
        """(J, detJ) with a singularity guard at the evaluation points."""
        return self.eval_jacobian_dets(points)[1:]

    def eval_jacobian_dets(self, points):
        """(X, J, detJ) from one tabulation.  Singular: |det J| at most
        ``_SINGULAR_TOL`` times the product of J's column norms, at any scale."""
        if self.nphys != self.ndim:
            raise ValueError("determinants need a square Jacobian")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        X, J = self._contract(pts)
        A = _adjugate(J)
        det = sum(A[:, 0, k] * J[:, k, 0] for k in range(self.ndim))  # along the first column
        bad = np.abs(det) <= _SINGULAR_TOL * np.prod(np.linalg.norm(J, axis=1), axis=1)
        if np.any(bad):
            raise ValueError(f"singular Jacobian at parametric point {pts[np.argmax(bad)]}")
        return X, J, det


def linear_patch(A, b=None) -> GeometryMap:
    """Degree-1 spline patch realizing x = A zeta + b."""
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    kvs = tuple(KnotVector.uniform(1, 1) for _ in range(d))
    zeta = np.indices((2,) * d, dtype=float).reshape(d, -1, order="F").T  # the corners, direction 1 fastest
    return GeometryMap(kvs, zeta @ A.T + b)


def affine_map(scale, offset=None, ndim=None) -> GeometryMap:
    """Axis-aligned affine geometry x = offset + diag(scale) * zeta."""
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    return linear_patch(np.diag(np.broadcast_to(scale, ndim or scale.size)), offset)


def extrude(section: GeometryMap) -> GeometryMap:
    """The prism (F(x, y), z), z in (0, 1), over a planar section F: its
    knot vectors and a degree-one z direction, slowest, whose control net
    is the section's at z = 0, then at z = 1, with the section's weights."""
    cp, w = section.control_points, section.weights
    net = np.vstack([np.column_stack([cp, np.full(len(cp), z)]) for z in (0.0, 1.0)])
    return GeometryMap((*section.kvs, KnotVector.uniform(1, 1)), net, None if w is None else np.tile(w, 2))


# -- pullbacks / push-forwards -----------------------------------------------------


def _adjugate(J):
    """Adjugates adj J = det(J) J^-1 of 1x1, 2x2 and 3x3 matrices (npts, n,
    n), in closed form: for 3x3 the rows are cross products of columns."""
    n = J.shape[-1]
    if n == 1:
        return np.ones_like(J)
    if n == 2:
        return np.stack([J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]], axis=-1).reshape(-1, 2, 2)
    c = J.transpose(0, 2, 1)
    return np.stack([np.cross(c[:, 1], c[:, 2]), np.cross(c[:, 2], c[:, 0]), np.cross(c[:, 0], c[:, 1])], axis=1)


def apply_pullback(j: int, J: np.ndarray, det: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the degree-j pullback to physical field values at points.

    j=0: composition; j=1: J^T u; j=2: det(J) J^{-1} u; j=3 (top form):
    det(J) u.  In 2D the top form has j=2 scalar semantics; pass j=3 for it.
    """
    if j == 0:
        return values
    if j == 3:
        return det * values
    if j == 1:
        return np.einsum("pji,pj->pi", J, values)
    if j == 2:
        return np.einsum("pij,pj->pi", _adjugate(J), values)
    raise ValueError("form degree must be 0..3")


def apply_pushforward(j: int, J: np.ndarray, det: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inverse transforms of :func:`apply_pullback`."""
    if j == 0:
        return values
    if j == 3:
        return values / det
    if j == 1:
        return np.einsum("pji,pj->pi", _adjugate(J), values) / det[:, None]
    if j == 2:
        return np.einsum("pij,pj->pi", J, values) / det[:, None]
    raise ValueError("form degree must be 0..3")


def pullback_weight(j: int, J: np.ndarray, det: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weights of the L2 product of degree-j forms in reference coordinates.

    Returns G (npts, c, c) with int u . v dx = sum_q uhat_q . G_q vhat_q for
    u, v the push-forwards of uhat, vhat and w the reference quadrature
    weights: w det(J) for j=0, w J^-1 J^-T det(J) = w adj(J) adj(J)^T /
    det(J) for j=1, w J^T J / det(J) for j=2 in 3D and w / det(J) for the
    top form (j = ndim).
    """
    if j == 0:
        return (w * det)[:, None, None]
    if j == J.shape[-1]:
        return (w / det)[:, None, None]
    if j == 1:
        A = _adjugate(J)
        return np.einsum("pik,pjk->pij", A, A) * (w / det)[:, None, None]
    if j == 2:
        return np.einsum("pki,pkj->pij", J, J) * (w / det)[:, None, None]
    raise ValueError("form degree must be 0..ndim")


def pullback(geo: GeometryMap, j: int, field):
    """Turn a physical field evaluator into a parametric one."""

    def hat(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        X, J, det = geo.eval_jacobian_dets(pts)
        phys = np.asarray(field(X))
        if j in (0, 3):
            phys = phys.reshape(pts.shape[0])
        else:
            phys = phys.reshape(pts.shape[0], -1)
        return apply_pullback(j, J, det, phys)

    return hat


# -- control complex ----------------------------------------------------------------


def greville_knot_vector(kv: KnotVector) -> KnotVector:
    """Degree-one open knot vector whose breakpoints are the Greville sites."""
    sites = kv.greville()
    if len(set(sites)) != len(sites):
        raise ValueError("coincident Greville sites (internal multiplicity > p)")
    bp = list(sites)
    mult = [1] * len(bp)
    mult[0] = mult[-1] = 2
    return KnotVector(1, tuple(bp), tuple(mult))


@dataclass
class ControlComplex:
    """Degree-one complex on the Greville mesh sharing the spline's dofs."""

    geo: GeometryMap
    complex: DiscreteComplex

    def control_map(self, points) -> np.ndarray:
        """F_C: the degree-one map on the Greville mesh through the control
        points."""
        return GeometryMap(self.complex.kvs, self.geo.control_points).eval(points)


def build_control_complex(geo: GeometryMap, cx: DiscreteComplex) -> ControlComplex:
    """Degree-one complex on the Greville mesh of the given complex.

    The per-space identifications are identities on coefficient vectors, so
    the control complex shares the operator matrices of the original.
    """
    if tuple(geo.kvs) != tuple(cx.kvs):
        raise ValueError("geometry and complex must share knot vectors")
    gkvs = [greville_knot_vector(kv) for kv in cx.kvs]
    zcx = build_complex(gkvs)
    if zcx.space_dim(0) != cx.space_dim(0):
        raise AssertionError("control space dimension mismatch")
    return ControlComplex(geo, zcx)


def control_distance(geo: GeometryMap, sample_count: int = 200) -> float:
    """Sup-norm estimate of |F - F_C| over a uniform sample grid."""
    control = GeometryMap(tuple(greville_knot_vector(kv) for kv in geo.kvs), geo.control_points)
    d = geo.ndim
    per = max(2, int(round(sample_count ** (1.0 / d))))
    axes = [np.linspace(0.0, 1.0, per if d > 1 else sample_count) for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return float(np.max(np.linalg.norm(geo.eval(pts) - control.eval(pts), axis=1)))
