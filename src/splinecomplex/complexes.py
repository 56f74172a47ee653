"""Discrete de Rham complexes of tensor-product splines on the unit cube.

The four spaces lower the degree per direction in the pattern of the
compatible-spline construction; with the B/D-scaled bases the differential
operators are sparse integer matrices with entries in {-1, 0, +1}, assembled
as Kronecker combinations of the univariate derivative pattern with
identities.  Works for parametric dimension 1, 2 and 3; in 2D both the
grad/rot and the rot/div sequences are produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bspline import Anchor1D, KnotVector, grad_matrix_1d, scaled_eval
from .exactrank import annihilates, rank_with_upper_bound, rational_kernel_vector
from .tensormesh import TensorMesh, build_tensor_mesh

__all__ = [
    "SplineFactor",
    "SplineSpace",
    "DiscreteComplex",
    "build_complex",
    "verify_exactness",
    "restrict_boundary",
    "eval_field",
    "entity_correspondence",
]


@dataclass(frozen=True)
class SplineFactor:
    """One direction of a tensor-product space: a knot vector plus scaling tag."""

    kv: KnotVector
    scaling: str  # 'B' plain B-splines, 'D' Curry-Schoenberg scaled

    @property
    def dim(self) -> int:
        return self.kv.n

    def anchors(self):
        return self.kv.anchors()


@dataclass(frozen=True)
class SplineSpace:
    """Tensor-product spline space, optionally one Cartesian component.

    Anchors are ordered lexicographically with direction 1 fastest.
    """

    factors: tuple
    component: int | None = None

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple:
        return tuple(f.dim for f in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))

    def anchor_tuples(self):
        """All anchors as per-direction Anchor1D tuples, direction 1 fastest."""
        per_dir = [f.anchors() for f in self.factors]
        out = []
        for idx in itertools.product(*(range(len(a)) for a in reversed(per_dir))):
            rev = tuple(reversed(idx))
            out.append(tuple(per_dir[d][rev[d]] for d in range(self.ndim)))
        return out

    def eval_factors(self, direction: int, x, deriv: int = 0) -> np.ndarray:
        """Values (npts, n_dir) of this direction's scaled basis functions."""
        f = self.factors[direction]
        return scaled_eval(f.kv.local_rows, f.kv.degree, f.scaling, x, deriv)

    def eval(self, coeffs, points) -> np.ndarray:
        """Evaluate the scalar field with the given coefficients.

        ``points`` is (npts, ndim); coefficients are anchor-ordered.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.ones((pts.shape[0], self.dim))
        for d in range(self.ndim):
            fam = self.eval_factors(d, pts[:, d])
            reps = int(np.prod(self.shape[:d])) or 1
            tiles = int(np.prod(self.shape[d + 1 :])) or 1
            expanded = np.tile(np.repeat(fam, reps, axis=1), (1, tiles))
            vals *= expanded
        return vals @ np.asarray(coeffs)


def _space(kvs, pattern, component=None) -> SplineSpace:
    factors = []
    for kv, tag in zip(kvs, pattern):
        if tag == "B":
            factors.append(SplineFactor(kv, "B"))
        else:
            factors.append(SplineFactor(kv.derived(), "D"))
    return SplineSpace(tuple(factors), component)


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
    if any(kv.degree < 1 for kv in kvs):
        raise ValueError("degree must be at least 1 in every direction")
    G = [grad_matrix_1d(kv) for kv in kvs]
    n = [kv.n for kv in kvs]
    mesh = build_tensor_mesh(kvs)

    if d == 1:
        spaces = {0: _space(kvs, "B"), 1: _space(kvs, "D")}
        ops = {"grad": G[0].astype(np.int64)}
        return DiscreteComplex(kvs, spaces, ops, mesh)

    if d == 2:
        X0 = _space(kvs, "BB")
        X1 = (_space(kvs, "DB", 0), _space(kvs, "BD", 1))
        X1s = (_space(kvs, "BD", 0), _space(kvs, "DB", 1))
        X2 = _space(kvs, "DD")
        grad = sp.vstack(
            [_kron_chain([G[0], _eye(n[1])]), _kron_chain([_eye(n[0]), G[1]])]
        ).tocsr()
        # scalar rot u = d1 u2 - d2 u1
        R1 = _kron_chain([_eye(n[0] - 1), G[1]])  # d2 on component 1
        R2 = _kron_chain([G[0], _eye(n[1] - 1)])  # d1 on component 2
        rot = sp.hstack([-R1, R2]).tocsr()
        rotvec = sp.vstack(
            [_kron_chain([_eye(n[0]), G[1]]), -_kron_chain([G[0], _eye(n[1])])]
        ).tocsr()
        div = sp.hstack([R2, R1]).tocsr()
        spaces = {0: X0, 1: X1, "1*": X1s, 2: X2}
        ops = {"grad": grad, "rot": rot, "rotvec": rotvec, "div": div}
        return DiscreteComplex(kvs, spaces, ops, mesh)

    if d == 3:
        X0 = _space(kvs, "BBB")
        X1 = (_space(kvs, "DBB", 0), _space(kvs, "BDB", 1), _space(kvs, "BBD", 2))
        X2 = (_space(kvs, "BDD", 0), _space(kvs, "DBD", 1), _space(kvs, "DDB", 2))
        X3 = _space(kvs, "DDD")
        I = [_eye(ni) for ni in n]
        Id = [_eye(ni - 1) for ni in n]
        d1_0 = _kron_chain([G[0], I[1], I[2]])
        d2_0 = _kron_chain([I[0], G[1], I[2]])
        d3_0 = _kron_chain([I[0], I[1], G[2]])
        grad = sp.vstack([d1_0, d2_0, d3_0]).tocsr()
        z = lambda r, c: sp.csr_matrix((r, c), dtype=np.int64)
        c1, c2, c3 = (X1[i].dim for i in range(3))
        curl = sp.vstack(
            [
                sp.hstack([z(X2[0].dim, c1), -_kron_chain([I[0], Id[1], G[2]]), _kron_chain([I[0], G[1], Id[2]])]),
                sp.hstack([_kron_chain([Id[0], I[1], G[2]]), z(X2[1].dim, c2), -_kron_chain([G[0], I[1], Id[2]])]),
                sp.hstack([-_kron_chain([Id[0], G[1], I[2]]), _kron_chain([G[0], Id[1], I[2]]), z(X2[2].dim, c3)]),
            ]
        ).tocsr()
        div = sp.hstack(
            [
                _kron_chain([G[0], Id[1], Id[2]]),
                _kron_chain([Id[0], G[1], Id[2]]),
                _kron_chain([Id[0], Id[1], G[2]]),
            ]
        ).tocsr()
        spaces = {0: X0, 1: X1, 2: X2, 3: X3}
        ops = {"grad": grad, "curl": curl, "div": div}
        return DiscreteComplex(kvs, spaces, ops, mesh)

    raise ValueError("dimension must be 1, 2 or 3")


# -- boundary restriction ---------------------------------------------------------


def _clamped(local, degree: int, side: int) -> bool:
    """True if the basis function with the given local knots has a nonzero
    value at the 0/1 end of its direction."""
    if side == 0:
        return local[degree] == 0
    return local[1] == 1


def _kept_mask(space: SplineSpace, faces, constrained_axes) -> np.ndarray:
    """Mask of anchors kept after removing those with nonzero trace."""
    keep = np.ones(space.dim, dtype=bool)
    per_dir = [f.anchors() for f in space.factors]
    shape = space.shape
    for axis, side in faces:
        if axis not in constrained_axes:
            continue
        deg = space.factors[axis].kv.degree
        bad = [a.index for a in per_dir[axis] if _clamped(a.local, deg, side)]
        for i in bad:
            sl = _axis_indices(shape, axis, i)
            keep[sl] = False
    return keep


def _axis_indices(shape, axis, i):
    """Flat indices (direction 1 fastest) where the axis-index equals i."""
    idx = np.arange(int(np.prod(shape)))
    coord = (idx // int(np.prod(shape[:axis]))) % shape[axis]
    return idx[coord == i]


@dataclass
class RestrictedComplex:
    """A discrete complex with homogeneous boundary conditions on some faces."""

    parent: DiscreteComplex
    faces: tuple
    masks: dict  # form degree -> concatenated keep-mask over components
    operators: dict

    def space_dim(self, j) -> int:
        return int(self.masks[j].sum())

    @property
    def dims(self):
        return tuple(self.space_dim(j) for j in sorted(self.masks))


def _space_masks(cx: DiscreteComplex, faces) -> dict:
    d = cx.ndim
    masks = {}

    def vector_mask(spaces, constrained_for):
        return np.concatenate(
            [_kept_mask(s, faces, constrained_for(s.component)) for s in spaces]
        )

    if d == 1:
        masks[0] = _kept_mask(cx.spaces[0], faces, {0})
        masks[1] = np.ones(cx.spaces[1].dim, dtype=bool)
        return masks
    if d == 2:
        masks[0] = _kept_mask(cx.spaces[0], faces, {0, 1})
        # tangential trace: component m constrained on faces with axis != m
        masks[1] = vector_mask(cx.spaces[1], lambda m: {0, 1} - {m})
        masks["1*"] = vector_mask(cx.spaces["1*"], lambda m: {m})
        masks[2] = np.ones(cx.spaces[2].dim, dtype=bool)
        return masks
    masks[0] = _kept_mask(cx.spaces[0], faces, {0, 1, 2})
    masks[1] = vector_mask(cx.spaces[1], lambda m: {0, 1, 2} - {m})
    masks[2] = vector_mask(cx.spaces[2], lambda m: {m})
    masks[3] = np.ones(cx.spaces[3].dim, dtype=bool)
    return masks


def restrict_boundary(cx: DiscreteComplex, faces) -> RestrictedComplex:
    """Remove basis functions with nonzero (tangential/normal/full) trace on
    the selected faces; faces are (axis, side) pairs."""
    faces = tuple(sorted(set(faces)))
    masks = _space_masks(cx, faces)
    ops = {}
    d = cx.ndim
    pairs = {
        1: [("grad", 0, 1)],
        2: [("grad", 0, 1), ("rot", 1, 2), ("rotvec", 0, "1*"), ("div", "1*", 2)],
        3: [("grad", 0, 1), ("curl", 1, 2), ("div", 2, 3)],
    }[d]
    for name, src, dst in pairs:
        A = cx.operators[name]
        ops[name] = A[masks[dst]][:, masks[src]].tocsr()
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


def _first_nonzero_product(A, B) -> bool:
    P = (A @ B).tocoo()
    return P.nnz == 0 or np.all(P.data == 0)


def verify_sequence(ops, chain, with_bc=False, prefix="") -> ExactnessReport:
    """Certified rank identities for one sequence of operator matrices.

    ``ops`` is the ordered list of matrices, ``chain`` the space dimensions.
    Without boundary conditions the kernel of the first operator is spanned
    by the coefficients of the constant (all-ones is tried first); with full
    boundary conditions the sequence ends in the integral functional and the
    first operator is injective.
    """
    identities = {}
    ranks = {}
    certified = True

    for k in range(1, len(ops)):
        identities[f"{prefix}d{k}∘d{k-1}=0"] = _first_nonzero_product(ops[k], ops[k - 1])

    G = ops[0]
    if with_bc:
        upper0 = chain[0]
    else:
        kernel_ok = annihilates(G, np.ones(chain[0], dtype=np.int64)) or rational_kernel_vector(G) is not None
        identities[f"{prefix}d0(const)=0"] = bool(kernel_ok)
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
    ops = cx.operators
    dims = {}
    src = cx.masks if restricted else cx.spaces
    for j in src:
        dims[j] = cx.space_dim(j)
    with_bc = False
    if restricted:
        if len(cx.faces) != 2 * d:
            raise ValueError("exactness verification needs the full boundary constrained")
        with_bc = True

    if d == 1:
        return verify_sequence([ops["grad"]], [dims[0], dims[1]], with_bc)
    if d == 2:
        rep = verify_sequence([ops["grad"], ops["rot"]], [dims[0], dims[1], dims[2]], with_bc)
        rep2 = verify_sequence(
            [ops["rotvec"], ops["div"]], [dims[0], dims["1*"], dims[2]], with_bc, prefix="*"
        )
        return _merge_reports(rep, rep2)
    return verify_sequence(
        [ops["grad"], ops["curl"], ops["div"]], [dims[0], dims[1], dims[2], dims[3]], with_bc
    )


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

    Equal odd degrees give the cochain complex of the mesh (grad equals the
    edge-vertex incidence matrix); equal even degrees give the chain complex
    on interior entities.  Mixed parities are reported as not applicable.
    """
    degrees = [kv.degree for kv in cx.kvs]
    parities = {p % 2 for p in degrees}
    if len(set(degrees)) != 1 or len(parities) != 1:
        return IncidenceReport("mixed", False, {}, {}, _entries_pm1(cx.operators))
    mesh = cx.mesh
    d = cx.ndim
    odd = degrees[0] % 2 == 1
    bij = {}
    matches = {}
    if odd:
        bij["X0"] = ("vertices", cx.space_dim(0) == mesh.num_vertices)
        if d >= 2:
            edges = sum(mesh.num_edges(k) for k in range(d))
            bij["X1"] = ("edges", cx.space_dim(1) == edges)
        if d == 3:
            faces = sum(mesh.num_faces(k) for k in range(3))
            bij["X2"] = ("faces", cx.space_dim(2) == faces)
            bij["X3"] = ("cells", cx.space_dim(3) == mesh.num_cells)
        if d == 2:
            bij["X2"] = ("cells", cx.space_dim(2) == mesh.num_cells)
        inc = sp.vstack([mesh.edge_vertex_incidence(k) for k in range(d)]).tocsr()
        G = cx.operators["grad"]
        matches["grad=edge-vertex"] = (G - inc).nnz == 0
    else:
        bij["X0"] = ("cells", cx.space_dim(0) == mesh.num_cells)
        if d >= 2:
            kind = "interior faces" if d == 3 else "interior edges"
            if d == 3:
                cnt = sum(mesh.num_faces(k) - 2 * int(np.prod([mesh.nspans[j] for j in range(3) if j != k])) for k in range(3))
            else:
                cnt = sum(mesh.num_edges(k) - 2 * mesh.nspans[k] for k in range(2))
            bij["X1"] = (kind, cx.space_dim(1) == cnt)
        if d == 2:
            interior_v = (mesh.nlines[0] - 2) * (mesh.nlines[1] - 2)
            bij["X2"] = ("interior vertices", cx.space_dim(2) == interior_v)
        if d == 3:
            interior_e = sum(
                mesh.nspans[k]
                * int(np.prod([mesh.nlines[j] - 2 for j in range(3) if j != k]))
                for k in range(3)
            )
            bij["X2"] = ("interior edges", cx.space_dim(2) == interior_e)
            interior_v = int(np.prod([nl - 2 for nl in mesh.nlines]))
            bij["X3"] = ("interior vertices", cx.space_dim(3) == interior_v)
        inc = sp.vstack(
            [mesh.face_cell_incidence(k, interior_only=True) for k in range(d)]
        ).tocsr()
        G = cx.operators["grad"]
        matches["grad=face-cell(interior)"] = (G - inc).nnz == 0
    ok_bij = all(v[1] for v in bij.values())
    matches["anchor-entity counts"] = ok_bij
    return IncidenceReport("odd" if odd else "even", True, bij, matches, _entries_pm1(cx.operators))
