"""Discrete de Rham complexes of tensor-product splines on the unit cube.

The four spaces lower the degree per direction in the pattern of the
compatible-spline construction; with the B/D-scaled bases the differential
operators are sparse integer matrices with entries in {-1, 0, +1}, assembled
as Kronecker combinations of the univariate derivative pattern with
identities.  Works for parametric dimension 1, 2 and 3; in 2D both the
grad/rot and the rot/div sequences are produced.

One rule ties the spaces to the mesh (:mod:`.tensormesh`): for odd
degrees X_j sits on the j-dimensional entities and grad is the edge-vertex
incidence; for even degrees X_j sits on the interior (d - j)-dimensional
entities and grad is the interior face-cell incidence.  The degrees may
differ by direction as long as they share one parity.
Homogeneous boundary conditions follow one rule too: a scalar is clamped on
every face, a 1-form in its tangential components, any other form below
the top degree in its normal one, and the top form nowhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bspline import _distinct, _tensor_rows, grad_matrix_1d, scaled_eval
from .exactrank import annihilates, rank_with_upper_bound
from .tensormesh import TensorMesh, build_tensor_mesh

__all__ = [
    "SplineSpace",
    "DiscreteComplex",
    "build_complex",
    "verify_exactness",
    "restrict_boundary",
    "eval_field",
    "entity_correspondence",
]


@dataclass(frozen=True)
class SplineSpace:
    """Tensor-product spline space, optionally one Cartesian component.

    Anchors are ordered lexicographically with direction 1 fastest.
    """

    kvs: tuple  # per direction, the derived knot vector where scaled
    scalings: str  # per direction: 'B' plain B-splines, 'D' Curry-Schoenberg scaled
    component: int | None = None

    @property
    def ndim(self) -> int:
        return len(self.kvs)

    @property
    def shape(self) -> tuple:
        return tuple(kv.n for kv in self.kvs)

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))

    def anchor_tuples(self):
        """All anchors as per-direction Anchor1D tuples, direction 1 fastest."""
        per_dir = [kv.anchors() for kv in self.kvs]
        return [tuple(a[i] for a, i in zip(per_dir, idx[::-1])) for idx in np.ndindex(*self.shape[::-1])]

    def eval(self, coeffs, points) -> np.ndarray:
        """Evaluate the scalar field with the given coefficients.

        ``points`` is (npts, ndim); coefficients are anchor-ordered.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tables = [
            _distinct(functools.partial(scaled_eval, kv.local_rows, kv.degree, tag), pts[:, d])
            for d, (kv, tag) in enumerate(zip(self.kvs, self.scalings))
        ]
        return _tensor_rows(tables) @ np.asarray(coeffs)


def _space(kvs, scalings, component=None) -> SplineSpace:
    kvs = tuple(kv if tag == "B" else kv.derived() for kv, tag in zip(kvs, scalings))
    return SplineSpace(kvs, scalings, component)


def _eye(n):
    return sp.identity(n, dtype=np.int64, format="csr")


def _kron_chain(mats):
    """Kronecker chain acting on direction-1-fastest flattened coefficients.

    ``mats`` is ordered per direction (direction 0 first).
    """
    out = None
    for m in mats:  # direction 1 fastest => it is the innermost kron factor
        out = m if out is None else sp.kron(m, out, format="csr")
    return out.astype(np.int64)


def extrude_operators(grad, rot, n11, Gz):
    """grad, curl and div of the tensor product of a 2D complex with a 1D one
    in direction 3, the slowest.

    ``grad`` and ``rot`` are the 2D operators, whose vector space has n11
    functions in component 1; ``Gz`` is the 1D derivative.  The X1 and X2
    components order (1, 2, 3); identities and zero blocks take the dtype of
    ``grad``, so integer operators stay integer.
    """
    kron = lambda a, b: sp.kron(a, b, format="csr")  # no explicit zeros, unlike bsr
    eye = lambda n: sp.identity(n, dtype=grad.dtype, format="csr")
    zero = lambda r, c: sp.csr_matrix((r, c), dtype=grad.dtype)
    nz, (n1, n0), n2 = Gz.shape[1], grad.shape, rot.shape[0]
    n12 = n1 - n11
    G1, G2 = grad[:n11], grad[n11:]
    R1, R2 = -rot[:, :n11], rot[:, n11:]  # d2 on component 1, d1 on component 2
    Iz, Izd = eye(nz), eye(nz - 1)
    grad3 = sp.vstack([kron(Iz, G1), kron(Iz, G2), kron(Gz, eye(n0))]).tocsr()
    curl = sp.vstack(
        [
            sp.hstack([zero(n12 * (nz - 1), n11 * nz), -kron(Gz, eye(n12)), kron(Izd, G2)]),
            sp.hstack([kron(Gz, eye(n11)), zero(n11 * (nz - 1), n12 * nz), -kron(Izd, G1)]),
            sp.hstack([kron(Iz, -R1), kron(Iz, R2), zero(n2 * nz, n0 * (nz - 1))]),
        ]
    ).tocsr()
    div = sp.hstack([kron(Izd, R2), kron(Izd, R1), kron(Gz, eye(n2))]).tocsr()
    return {"grad": grad3, "curl": curl, "div": div}


@dataclass
class DiscreteComplex:
    """Spaces and integer operator matrices of one discrete de Rham sequence."""

    kvs: tuple
    spaces: dict  # form degree -> SplineSpace or tuple of component spaces
    operators: dict  # name -> sparse integer matrix
    mesh: TensorMesh = field(repr=False, default=None)

    @property
    def ndim(self) -> int:
        return len(self.kvs)

    def space_dim(self, j) -> int:
        s = self.spaces[j]
        if isinstance(s, tuple):
            return sum(c.dim for c in s)
        return s.dim

    @property
    def dims(self) -> tuple:
        degrees = [j for j in self.spaces if isinstance(j, int)]
        return tuple(self.space_dim(j) for j in sorted(degrees))


def build_complex(kvs) -> DiscreteComplex:
    """Build the discrete complex for the given per-direction knot vectors."""
    kvs = tuple(kvs)
    d = len(kvs)
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if any(kv.degree < 1 for kv in kvs):
        raise ValueError("degree must be at least 1 in every direction")
    G = [grad_matrix_1d(kv) for kv in kvs]
    n = [kv.n for kv in kvs]
    mesh = build_tensor_mesh(kvs)

    if d == 1:
        spaces = {0: _space(kvs, "B"), 1: _space(kvs, "D")}
        ops = {"grad": G[0].astype(np.int64)}
        return DiscreteComplex(kvs, spaces, ops, mesh)

    # the complex of directions 1 and 2; scalar rot u = d1 u2 - d2 u1
    grad = sp.vstack([_kron_chain([G[0], _eye(n[1])]), _kron_chain([_eye(n[0]), G[1]])]).tocsr()
    R1 = _kron_chain([_eye(n[0] - 1), G[1]])  # d2 on component 1
    R2 = _kron_chain([G[0], _eye(n[1] - 1)])  # d1 on component 2
    rot = sp.hstack([-R1, R2]).tocsr()

    if d == 2:
        X0 = _space(kvs, "BB")
        X1 = (_space(kvs, "DB", 0), _space(kvs, "BD", 1))
        X1s = (_space(kvs, "BD", 0), _space(kvs, "DB", 1))
        X2 = _space(kvs, "DD")
        rotvec = sp.vstack(
            [_kron_chain([_eye(n[0]), G[1]]), -_kron_chain([G[0], _eye(n[1])])]
        ).tocsr()
        div = sp.hstack([R2, R1]).tocsr()
        spaces = {0: X0, 1: X1, "1*": X1s, 2: X2}
        ops = {"grad": grad, "rot": rot, "rotvec": rotvec, "div": div}
        return DiscreteComplex(kvs, spaces, ops, mesh)

    X0 = _space(kvs, "BBB")
    X1 = (_space(kvs, "DBB", 0), _space(kvs, "BDB", 1), _space(kvs, "BBD", 2))
    X2 = (_space(kvs, "BDD", 0), _space(kvs, "DBD", 1), _space(kvs, "DDB", 2))
    X3 = _space(kvs, "DDD")
    ops = extrude_operators(grad, rot, (n[0] - 1) * n[1], G[2])
    return DiscreteComplex(kvs, {0: X0, 1: X1, 2: X2, 3: X3}, ops, mesh)


# -- boundary restriction ---------------------------------------------------------


def _kept_mask(space: SplineSpace, faces, constrained_axes) -> np.ndarray:
    """Mask of anchors kept after removing those with nonzero trace."""
    keep = np.ones(space.shape, dtype=bool)
    for axis, side in faces:
        if axis in constrained_axes:
            # on an open knot vector only the first function reaches side 0, the last side 1
            np.moveaxis(keep, axis, 0)[-side] = False
    return keep.ravel(order="F")


@dataclass
class RestrictedComplex:
    """A discrete complex with homogeneous boundary conditions on some faces."""

    parent: DiscreteComplex
    faces: tuple
    masks: dict  # form degree -> concatenated keep-mask over components
    operators: dict

    def space_dim(self, j) -> int:
        return int(self.masks[j].sum())


def _constrained_axes(j, component, d):
    """The face axes on which the traces of form degree ``j`` (component
    ``component``) vanish: every axis for scalars, none for the top form,
    the tangential ones for 1-forms and the normal one otherwise."""
    if j == 0:
        return range(d)
    if j == d:
        return ()
    return [axis for axis in range(d) if (axis != component) == (j == 1)]


def _space_masks(cx: DiscreteComplex, faces) -> dict:
    masks = {}
    for j, spaces in cx.spaces.items():
        comps = spaces if isinstance(spaces, tuple) else (spaces,)
        masks[j] = np.concatenate(
            [_kept_mask(s, faces, _constrained_axes(j, s.component, cx.ndim)) for s in comps]
        )
    return masks


# The sequences of each dimension as (operator, source, target) form degrees;
# 2D has the grad/rot and the rot/div ones.
_SEQUENCES = {
    1: [[("grad", 0, 1)]],
    2: [[("grad", 0, 1), ("rot", 1, 2)], [("rotvec", 0, "1*"), ("div", "1*", 2)]],
    3: [[("grad", 0, 1), ("curl", 1, 2), ("div", 2, 3)]],
}


def restrict_boundary(cx: DiscreteComplex, faces) -> RestrictedComplex:
    """Remove basis functions with nonzero (tangential/normal/full) trace on
    the selected faces; faces are (axis, side) pairs."""
    faces = tuple(sorted(set(faces)))
    masks = _space_masks(cx, faces)
    ops = {
        name: cx.operators[name][masks[dst]][:, masks[src]].tocsr()
        for seq in _SEQUENCES[cx.ndim]
        for name, src, dst in seq
    }
    return RestrictedComplex(cx, faces, masks, ops)


# -- exactness verification --------------------------------------------------------


@dataclass
class ExactnessReport:
    identities: dict
    ranks: dict
    certified: bool

    @property
    def passed(self) -> bool:
        return all(self.identities.values())


def _product_vanishes(A, B) -> bool:
    return not np.any(sp.csr_matrix(A @ B).data)


def verify_sequence(ops, chain, with_bc=False, prefix="") -> ExactnessReport:
    """Certified rank identities for one sequence of operator matrices.

    ``ops`` is the ordered list of matrices, ``chain`` the space dimensions.
    Without boundary conditions the basis must be a partition of unity: the
    all-ones vector, checked exactly to lie in the kernel of the first
    operator, is the certificate for the constants (``d0(const)=0`` is False
    otherwise).  With full boundary conditions the sequence ends in the
    integral functional and the first operator is injective.
    """
    identities = {}
    ranks = {}
    certified = True

    for k in range(1, len(ops)):
        identities[f"{prefix}d{k}∘d{k-1}=0"] = _product_vanishes(ops[k], ops[k - 1])

    G = ops[0]
    if with_bc:
        upper0 = chain[0]
    else:
        identities[f"{prefix}d0(const)=0"] = annihilates(G, np.ones(chain[0], dtype=np.int64))
        upper0 = chain[0] - 1
    r0, ok0 = rank_with_upper_bound(G, upper0)
    ranks[f"{prefix}d0"] = r0
    certified &= ok0
    identities[f"{prefix}rank(d0)={upper0}"] = r0 == upper0 and ok0

    prev_rank = r0
    for k in range(1, len(ops)):
        A = ops[k]
        last = k == len(ops) - 1
        if last:
            upper = chain[-1] - (1 if with_bc else 0)
            if with_bc:
                colsums = np.asarray(A.sum(axis=0)).ravel()
                identities[f"{prefix}integral∘d{k}=0"] = np.all(colsums == 0)
        else:
            upper = chain[k] - prev_rank
        r, ok = rank_with_upper_bound(A, upper)
        ranks[f"{prefix}d{k}"] = r
        certified &= ok
        identities[f"{prefix}rank(d{k})={upper}"] = r == upper and ok
        identities[f"{prefix}nullity(d{k})=rank(d{k-1})"] = (chain[k] - r) == prev_rank
        prev_rank = r
    return ExactnessReport(identities, ranks, certified)


def _merge_reports(a: ExactnessReport, b: ExactnessReport) -> ExactnessReport:
    return ExactnessReport({**a.identities, **b.identities}, {**a.ranks, **b.ranks}, a.certified and b.certified)


def verify_exactness(cx) -> ExactnessReport:
    """Check the rank identities of the exact sequence with certified ranks.

    Accepts a DiscreteComplex or a fully-constrained RestrictedComplex (then
    the sequence ending in the integral functional is verified).  In 2D both
    the grad/rot and the rot/div sequences are checked.
    """
    restricted = isinstance(cx, RestrictedComplex)
    d = cx.parent.ndim if restricted else cx.ndim
    if restricted and len(cx.faces) != 2 * d:
        raise ValueError("exactness verification needs the full boundary constrained")
    reports = []
    for i, seq in enumerate(_SEQUENCES[d]):
        ops = [cx.operators[name] for name, _, _ in seq]
        chain = [cx.space_dim(j) for j in (seq[0][1], *(dst for _, _, dst in seq))]
        reports.append(verify_sequence(ops, chain, restricted, prefix="*" * i))
    return functools.reduce(_merge_reports, reports)


# -- field evaluation ----------------------------------------------------------------


def eval_field(spaces, coeffs, points):
    """Evaluate a scalar space or a tuple of component spaces at points.

    Returns (npts,) for scalars and (npts, ncomp) for vector spaces; the
    coefficient vector concatenates components in order.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise ValueError("evaluation point outside the parametric domain")
    coeffs = np.asarray(coeffs)
    if isinstance(spaces, SplineSpace):
        return spaces.eval(coeffs, pts)
    out = np.zeros((pts.shape[0], len(spaces)))
    off = 0
    for m, s in enumerate(spaces):
        out[:, m] = s.eval(coeffs[off : off + s.dim], pts)
        off += s.dim
    return out


# -- entity correspondence -------------------------------------------------------------


@dataclass
class IncidenceReport:
    kind: str
    applicable: bool
    bijections: dict
    operator_matches: dict
    entries_pm1: bool

    @property
    def passed(self) -> bool:
        return self.applicable and all(self.operator_matches.values()) and self.entries_pm1


def _entries_pm1(ops) -> bool:
    return all(np.all(np.isin(A.tocoo().data, (-1, 0, 1))) for A in ops.values())


def entity_correspondence(cx: DiscreteComplex) -> IncidenceReport:
    """Match anchors to mesh entities and operators to incidence matrices.

    Odd degrees give the cochain complex of the mesh (grad equals the
    edge-vertex incidence matrix); even degrees give the chain complex on
    interior entities.  Only the parity counts, so (3, 1) is odd; mixed
    parities are reported as not applicable.
    """
    parities = {kv.degree % 2 for kv in cx.kvs}
    if len(parities) != 1:
        return IncidenceReport("mixed", False, {}, {}, _entries_pm1(cx.operators))
    mesh, d = cx.mesh, cx.ndim
    odd = parities == {1}
    names = ("vertices", "edges", "faces")
    bij = {}
    for j in range(d + 1):
        k = j if odd else d - j
        name = "cells" if k == d else names[k] if odd else f"interior {names[k]}"
        bij[f"X{j}"] = (name, cx.space_dim(j) == mesh.num_entities(k, interior=not odd))
    if odd:
        inc, key = [mesh.edge_vertex_incidence(k) for k in range(d)], "grad=edge-vertex"
    else:
        inc, key = [mesh.face_cell_incidence(k) for k in range(d)], "grad=face-cell(interior)"
    matches = {key: (cx.operators["grad"] - sp.vstack(inc)).nnz == 0}
    matches["anchor-entity counts"] = all(v[1] for v in bij.values())
    return IncidenceReport("odd" if odd else "even", True, bij, matches, _entries_pm1(cx.operators))
