"""Spline and NURBS geometry maps, pullbacks and control complexes.

Geometry maps are evaluated pointwise (values and exact Jacobians); the
four pullbacks are the composition, covariant, Piola and determinant
transforms that preserve point values, circulations, fluxes and integrals.
Unknown fields are always splines; NURBS enter through the geometry only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bspline import KnotVector, eval_basis, eval_basis_deriv
from .complexes import DiscreteComplex, build_complex

__all__ = [
    "GeometryMap",
    "affine_map",
    "pullback",
    "pushforward",
    "apply_pullback",
    "apply_pushforward",
    "pullback_weight",
    "ControlComplex",
    "build_control_complex",
    "control_distance",
]

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class GeometryMap:
    """Tensor spline or NURBS parametrization of a patch.

    Control points are stored flat in lexicographic order (direction 1
    fastest), one row per control point.
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
    def kind(self) -> str:
        return "spline" if self.weights is None else "NURBS"

    @property
    def ndim(self) -> int:
        return len(self.kvs)

    @property
    def nphys(self) -> int:
        return self.control_points.shape[1]

    def _basis_tables(self, pts: np.ndarray):
        vals = [eval_basis(kv, pts[:, d]) for d, kv in enumerate(self.kvs)]
        ders = [eval_basis_deriv(kv, pts[:, d]) for d, kv in enumerate(self.kvs)]
        return vals, ders

    def _tensor(self, tables) -> np.ndarray:
        """Combine per-direction tables into (npts, ncp), direction 1 fastest."""
        out = tables[0]
        for t in tables[1:]:
            out = (out[:, None, :] * t[:, :, None]).reshape(t.shape[0], -1)
        return out

    def eval(self, points) -> np.ndarray:
        """Physical image of parametric points (npts, ndim) -> (npts, nphys)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals, _ = self._basis_tables(pts)
        B = self._tensor(vals)
        if self.weights is None:
            return B @ self.control_points
        W = B * self.weights
        den = W.sum(axis=1)
        num = W @ self.control_points
        return num / den[:, None]

    def jacobian(self, points) -> np.ndarray:
        """Jacobian matrices (npts, nphys, ndim) by exact differentiation."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals, ders = self._basis_tables(pts)
        npts = pts.shape[0]
        J = np.empty((npts, self.nphys, self.ndim))
        if self.weights is None:
            for d in range(self.ndim):
                tables = [ders[k] if k == d else vals[k] for k in range(self.ndim)]
                J[:, :, d] = self._tensor(tables) @ self.control_points
            return J
        B = self._tensor(vals)
        W = B * self.weights
        den = W.sum(axis=1)
        num = W @ self.control_points
        for d in range(self.ndim):
            tables = [ders[k] if k == d else vals[k] for k in range(self.ndim)]
            dB = self._tensor(tables) * self.weights
            dden = dB.sum(axis=1)
            dnum = dB @ self.control_points
            J[:, :, d] = (dnum * den[:, None] - num * dden[:, None]) / (den**2)[:, None]
        return J

    def jacobian_dets(self, points):
        """(J, detJ) with a singularity guard at the evaluation points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        J = self.jacobian(pts)
        if self.nphys != self.ndim:
            raise ValueError("determinants need a square Jacobian")
        det = np.linalg.det(J)
        bad = np.abs(det) < _SINGULAR_TOL
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            raise ValueError(f"singular Jacobian at parametric point {pts[i]}")
        return J, det


def affine_map(scale, offset=None, ndim=None, degree=1) -> GeometryMap:
    """Axis-aligned affine geometry x = offset + diag(scale) * zeta."""
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    d = ndim or scale.size
    if scale.size == 1:
        scale = np.repeat(scale, d)
    offset = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)
    kvs = tuple(KnotVector.uniform(degree, 1) for _ in range(d))
    grev = [np.array([float(g) for g in kv.greville()]) for kv in kvs]
    grids = np.meshgrid(*grev, indexing="ij")
    cp = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    cp = cp * scale + offset
    return GeometryMap(kvs, cp)


# -- pullbacks / push-forwards -----------------------------------------------------


def _inv(J):
    return np.linalg.inv(J)


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
        return det[:, None] * np.einsum("pij,pj->pi", _inv(J), values)
    raise ValueError("form degree must be 0..3")


def apply_pushforward(j: int, J: np.ndarray, det: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inverse transforms of :func:`apply_pullback`."""
    if j == 0:
        return values
    if j == 3:
        return values / det
    if j == 1:
        return np.einsum("pij,pj->pi", np.linalg.inv(np.transpose(J, (0, 2, 1))), values)
    if j == 2:
        return np.einsum("pij,pj->pi", J, values) / det[:, None]
    raise ValueError("form degree must be 0..3")


def pullback_weight(j: int, J: np.ndarray, det: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weights of the L2 product of degree-j forms in reference coordinates.

    Returns G (npts, c, c) with int u . v dx = sum_q uhat_q . G_q vhat_q for
    u, v the push-forwards of uhat, vhat and w the reference quadrature
    weights: w det(J) for j=0, w J^-1 J^-T det(J) for j=1, w J^T J / det(J)
    for j=2 in 3D and w / det(J) for the top form (j = ndim).
    """
    if j == 0:
        return (w * det)[:, None, None]
    if j == J.shape[-1]:
        return (w / det)[:, None, None]
    if j == 1:
        Jinv = _inv(J)
        return np.einsum("pik,pjk->pij", Jinv, Jinv) * (det * w)[:, None, None]
    if j == 2:
        return np.einsum("pki,pkj->pij", J, J) * (w / det)[:, None, None]
    raise ValueError("form degree must be 0..ndim")


def pullback(geo: GeometryMap, j: int, field):
    """Turn a physical field evaluator into a parametric one."""

    def hat(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        J, det = geo.jacobian_dets(pts)
        phys = np.asarray(field(geo.eval(pts)))
        if j in (0, 3):
            phys = phys.reshape(pts.shape[0])
        else:
            phys = phys.reshape(pts.shape[0], -1)
        return apply_pullback(j, J, det, phys)

    return hat


def pushforward(geo: GeometryMap, j: int, hat_values, points) -> np.ndarray:
    """Push parametric field values at parametric points to physical ones."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    J, det = geo.jacobian_dets(pts)
    return apply_pushforward(j, J, det, np.asarray(hat_values))


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
    greville: tuple  # per-direction Greville sites as Fractions

    def control_map(self, points) -> np.ndarray:
        """Piecewise multilinear map through the control points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((pts.shape[0], self.geo.nphys))
        cp = self.geo.control_points
        shape = tuple(len(g) for g in self.greville)
        vals = np.ones((pts.shape[0], int(np.prod(shape))))
        for d, sites in enumerate(self.greville):
            xs = np.array([float(s) for s in sites])
            lam = _hat_values(xs, pts[:, d])
            reps = int(np.prod(shape[:d])) or 1
            tiles = int(np.prod(shape[d + 1 :])) or 1
            vals *= np.tile(np.repeat(lam, reps, axis=1), (1, tiles))
        out = vals @ cp
        return out


def _hat_values(xs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lagrangian hat functions on the sorted sites xs, evaluated at t."""
    n = xs.size
    out = np.zeros((t.size, n))
    idx = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, n - 2)
    x0 = xs[idx]
    x1 = xs[idx + 1]
    w = np.where(x1 > x0, (t - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
    rows = np.arange(t.size)
    out[rows, idx] = 1.0 - w
    out[rows, idx + 1] = w
    return out


def build_control_complex(geo: GeometryMap, cx: DiscreteComplex) -> ControlComplex:
    """Degree-one complex on the Greville mesh of the given complex.

    The per-space identifications are identities on coefficient vectors, so
    the control complex shares the operator matrices of the original.
    """
    if tuple(geo.kvs) != tuple(cx.kvs):
        raise ValueError("geometry and complex must share knot vectors")
    gkvs = [greville_knot_vector(kv) for kv in cx.kvs]
    zcx = build_complex(gkvs)
    for j in (0,):
        if zcx.space_dim(j) != cx.space_dim(j):
            raise AssertionError("control space dimension mismatch")
    grev = tuple(tuple(kv.greville()) for kv in cx.kvs)
    return ControlComplex(geo, zcx, grev)


def control_distance(geo: GeometryMap, sample_count: int = 200) -> float:
    """Sup-norm estimate of |F - F_C| over a uniform sample grid."""
    cx = build_complex(geo.kvs)
    cc = build_control_complex(geo, cx)
    d = geo.ndim
    per = max(2, int(round(sample_count ** (1.0 / d))))
    axes = [np.linspace(0.0, 1.0, per if d > 1 else sample_count) for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    F = geo.eval(pts)
    FC = cc.control_map(pts)
    return float(np.max(np.linalg.norm(F - FC, axis=1)))
