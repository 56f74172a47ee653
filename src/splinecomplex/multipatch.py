"""Conformity checking and degree-of-freedom merging across patch interfaces.

Interfaces are declared (patch, face) pairs with an axis permutation/flip
code, then verified: matching trace spaces under the coordinate map and
pointwise geometric agreement.  Merging identifies trace basis functions by
their local knot vectors in face coordinates; orientation signs are fixed by
evaluating both physical traces at a matched face point, with the
lower-indexed patch as the master (+1).

Faces are (axis, side) pairs; the face coordinates are the remaining
parametric axes in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp

from .assembly import Complex3D, Scalar2D, Vector2D, _clamped_block, _clamped_lkv, _clamped_z
from .bspline import scaled_eval

__all__ = [
    "Scalar3D",
    "PatchSet",
    "Interface",
    "ConformityError",
    "check_conformity",
    "build_glue",
    "global_operator",
]


class ConformityError(ValueError):
    pass


@dataclass
class Scalar3D:
    """Scalar 3D space (X0): a 2D scalar space tensor a vertical direction."""

    cx3: Complex3D

    @property
    def dim(self):
        return self.cx3.tcx.space_dim(0) * self.cx3.kv_z.n

    def clamped_dofs(self, face):
        return _clamped_block(0, self.cx3.tcx.Y0, self.cx3.kv_z, *face)


def _z_anchors(kvz):
    ks = kvz.knots
    p = kvz.degree
    return [tuple(ks[i : i + p + 2]) for i in range(kvz.n)]


def _flip_lkv(lkv):
    return tuple(1 - t for t in reversed(lkv))


@dataclass(frozen=True)
class Interface:
    """Declared interface: a = (patch, face), b likewise, plus the map of
    a's face axes onto b's (permutation) and per-axis reversal flags."""

    a: tuple
    b: tuple
    perm: tuple = None
    flip: tuple = None

    def normalized(self, nface_axes):
        perm = self.perm or tuple(range(nface_axes))
        flip = self.flip or tuple(False for _ in range(nface_axes))
        return perm, flip


@dataclass
class PatchSet:
    """Patches (geometry + discrete space) with declared interfaces."""

    geoms: list
    spaces: list
    interfaces: list = field(default_factory=list)

    @property
    def npatches(self):
        return len(self.geoms)


# -- trace-dof extraction ------------------------------------------------------


def _face_axes(ndim, axis):
    return tuple(d for d in range(ndim) if d != axis)


def _trace_dofs(space, face):
    """(local dof, key) pairs of the basis functions with nonzero trace.

    Keys carry the component in face coordinates and the local knot vectors
    per face axis, plus the scaling tags so only like functions merge.
    """
    axis, side = face
    out = []
    if isinstance(space, Scalar2D):
        for a in space.space.anchors:
            lkvs = (a.lkv1, a.lkv2)
            if _clamped_lkv(lkvs[axis], space.space.degrees[axis], side):
                out.append((a.index, ("s", lkvs[1 - axis])))
        return out
    if isinstance(space, Vector2D):
        comp = 1 - axis
        sp2 = (space.c1, space.c2)[comp]
        off = 0 if comp == 0 else space.c1.dim
        for a in sp2.anchors:
            lkvs = (a.lkv1, a.lkv2)
            if _clamped_lkv(lkvs[axis], sp2.degrees[axis], side):
                out.append((off + a.index, ("t", 0, lkvs[1 - axis])))
        return out
    if isinstance(space, Scalar3D):
        cx3 = space.cx3
        s2d = cx3.tcx.Y0
        kvz = cx3.kv_z
        zanch = _z_anchors(kvz)
        if axis == 2:
            for iz in _clamped_z(kvz, side):
                for a in s2d.anchors:
                    out.append((iz * s2d.dim + a.index, ("s2", a.lkv1, a.lkv2)))
        else:
            for a in s2d.anchors:
                lkvs = (a.lkv1, a.lkv2)
                if _clamped_lkv(lkvs[axis], s2d.degrees[axis], side):
                    for iz, zl in enumerate(zanch):
                        out.append((iz * s2d.dim + a.index, ("s", lkvs[1 - axis], zl)))
        return out
    if isinstance(space, Complex3D):
        return _trace_dofs_x1(space, face)
    raise TypeError(f"no trace extraction for {type(space)!r}")


def _trace_dofs_x1(cx3: Complex3D, face):
    axis, side = face
    blocks = cx3.x1_blocks()
    offs = cx3.x1_offsets()
    out = []
    if axis == 2:
        for m in (0, 1):
            s2d, kvz, _ = blocks[m]
            for iz in _clamped_z(kvz, side):
                for a in s2d.anchors:
                    key = ("t2", m, a.lkv1, a.lkv2)
                    out.append((offs[m] + iz * s2d.dim + a.index, key))
        return out
    # side face: tangential components are the other 2D direction and z
    m2d = 1 - axis
    s2d, kvz, _ = blocks[m2d]
    zanch = _z_anchors(kvz)
    for a in s2d.anchors:
        lkvs = (a.lkv1, a.lkv2)
        if _clamped_lkv(lkvs[axis], s2d.degrees[axis], side):
            for iz, zl in enumerate(zanch):
                key = ("v", 0, lkvs[1 - axis], zl)
                out.append((offs[m2d] + iz * s2d.dim + a.index, key))
    s2d, kvz, _ = blocks[2]
    zanch = _z_anchors(kvz)
    for a in s2d.anchors:
        lkvs = (a.lkv1, a.lkv2)
        if _clamped_lkv(lkvs[axis], s2d.degrees[axis], side):
            for iz, zl in enumerate(zanch):
                key = ("v", 1, lkvs[1 - axis], zl)
                out.append((offs[2] + iz * s2d.dim + a.index, key))
    return out


def _transform_key(key, perm, flip):
    """Map a trace key from a-face coordinates to b-face coordinates."""
    kind = key[0]
    if kind == "s":
        lkvs = list(key[1:])
    elif kind in ("s2",):
        lkvs = list(key[1:])
    elif kind == "t":
        lkvs = list(key[2:])
    elif kind == "t2":
        lkvs = list(key[2:])
    elif kind == "v":
        lkvs = list(key[2:])
    else:
        raise ValueError(key)
    nax = len(lkvs)
    new = [None] * nax
    for i in range(nax):
        lk = _flip_lkv(lkvs[i]) if flip[i] else lkvs[i]
        new[perm[i]] = lk
    if kind in ("s", "s2"):
        return (kind, *new)
    comp = key[1]
    return (kind, perm[comp], *new)


# -- geometric probes for orientation signs ----------------------------------------


def _support_mid(lkv):
    return float(lkv[0] + lkv[-1]) / 2.0


def _face_point(ndim, face, coords):
    axis, side = face
    pt = np.zeros(ndim)
    pt[axis] = float(side)
    for d, v in zip(_face_axes(ndim, axis), coords):
        pt[d] = v
    return pt


def _eval_2d_factor(s2d, lkv1, lkv2, xy):
    v1 = scaled_eval(lkv1, s2d.degrees[0], s2d.scalings[0], xy[0])[0]
    v2 = scaled_eval(lkv2, s2d.degrees[1], s2d.scalings[1], xy[1])[0]
    return float(v1 * v2)


def _key_coords(key):
    kind = key[0]
    lkvs = key[1:] if kind in ("s", "s2") else key[2:]
    return tuple(_support_mid(lk) for lk in lkvs)


def _outward_normal(J, axis, side):
    d = J.shape[0]
    tangents = [J[:, a] for a in range(d) if a != axis]
    if d == 3:
        n = np.cross(tangents[0], tangents[1])
    else:
        t = tangents[0]
        n = np.array([t[1], -t[0]])
    n = n / np.linalg.norm(n)
    probe = J[:, axis]
    inward = probe if side == 0 else -probe
    if n @ inward > 0:
        n = -n
    return n


# -- conformity -----------------------------------------------------------------


def check_conformity(ps: PatchSet, samples: int = 7, tol: float = 1e-10):
    """Per interface: trace keys match under the coordinate map and the two
    geometry images agree pointwise."""
    report = []
    for itf in ps.interfaces:
        (ka, fa), (kb, fb) = itf.a, itf.b
        space_a, space_b = ps.spaces[ka], ps.spaces[kb]
        ndim = ps.geoms[ka].ndim
        perm, flip = itf.normalized(ndim - 1)
        ta = dict()
        for dof, key in _trace_dofs(space_a, fa):
            ta[_transform_key(key, perm, flip)] = dof
        tb = {key: dof for dof, key in _trace_dofs(space_b, fb)}
        missing = set(ta) ^ set(tb)
        if missing:
            first = sorted(missing, key=str)[0]
            report.append((itf, False, f"trace spaces differ, first mismatch {first}"))
            continue
        # sampled geometric agreement
        grid = np.linspace(0.05, 0.95, samples)
        coords = np.stack(np.meshgrid(*([grid] * (ndim - 1)), indexing="ij"), axis=-1).reshape(-1, ndim - 1)
        pts_a = np.array([_face_point(ndim, fa, c) for c in coords])
        cb = np.empty_like(coords)
        for i in range(ndim - 1):
            src = 1.0 - coords[:, i] if flip[i] else coords[:, i]
            cb[:, perm[i]] = src
        pts_b = np.array([_face_point(ndim, fb, c) for c in cb])
        Fa = ps.geoms[ka].eval(pts_a)
        Fb = ps.geoms[kb].eval(pts_b)
        err = float(np.max(np.linalg.norm(Fa - Fb, axis=1)))
        report.append((itf, err < tol, f"max geometric mismatch {err:.2e}"))
    return report


# -- glue -----------------------------------------------------------------------


@dataclass
class Glue:
    """Scatter maps: per patch a sparse (local x global) matrix with signs."""

    scatters: list
    ndof: int

    def global_matrix(self, locals_):
        A = None
        for S, Ak in zip(self.scatters, locals_):
            term = S.T @ Ak @ S
            A = term if A is None else A + term
        return A.tocsr()

    def global_vector(self, locals_):
        v = np.zeros(self.ndof, dtype=np.result_type(*[l.dtype for l in locals_]))
        for S, bk in zip(self.scatters, locals_):
            v += S.T @ bk
        return v

    def global_dofs_for(self, patch, local_dofs):
        """Global dofs of local dofs of a patch: every scatter row holds
        exactly one signed entry."""
        S = self.scatters[patch]
        return S.indices[S.indptr[np.asarray(local_dofs, dtype=int)]]


def build_glue(ps: PatchSet, check: bool = True) -> Glue:
    """Merge coincident interface dofs with orientation from the lower patch."""
    if check:
        rep = check_conformity(ps)
        bad = [r for r in rep if not r[1]]
        if bad:
            raise ConformityError(str(bad[0]))
    dims = [s.dim if not isinstance(s, Complex3D) else s.x1_dim() for s in ps.spaces]
    offset = np.concatenate([[0], np.cumsum(dims)])
    total = int(offset[-1])
    parent = list(range(total))
    rel = [1] * total  # sign relative to the parent

    def find(x):
        if parent[x] == x:
            return x, 1
        root, s = find(parent[x])
        parent[x] = root
        rel[x] = rel[x] * s
        return root, rel[x]

    def union(x, y, sxy):
        """Impose value_x = sxy * value_y."""
        rx, sx = find(x)
        ry, sy = find(y)
        if rx == ry:
            if sx != sxy * sy:
                raise ConformityError("inconsistent orientation around an interface entity")
            return
        # attach the higher root under the lower (master = lower patch/index)
        if rx < ry:
            parent[ry] = rx
            rel[ry] = sx * sxy * sy  # value_y = s * value_root
        else:
            parent[rx] = ry
            rel[rx] = sx * sxy * sy

    for itf in ps.interfaces:
        (ka, fa), (kb, fb) = itf.a, itf.b
        ndim = ps.geoms[ka].ndim
        perm, flip = itf.normalized(ndim - 1)
        ta = {}
        for dof, key in _trace_dofs(ps.spaces[ka], fa):
            ta[_transform_key(key, perm, flip)] = (dof, key)
        for dof_b, key_b in _trace_dofs(ps.spaces[kb], fb):
            if key_b not in ta:
                raise ConformityError(f"unmatched trace function {key_b}")
            dof_a, key_a = ta[key_b]
            sgn = _pair_sign(ps, ka, fa, key_a, kb, fb, key_b)
            union(offset[ka] + dof_a, offset[kb] + dof_b, sgn)

    roots = {}
    for x in range(total):
        r, s = find(x)
        roots.setdefault(r, []).append((x, s))
    order = sorted(roots)
    gid = {r: g for g, r in enumerate(order)}
    ndof = len(order)
    scatters = []
    for k in range(ps.npatches):
        rows, cols, vals = [], [], []
        for i in range(dims[k]):
            x = offset[k] + i
            r, s = find(x)
            rows.append(i)
            cols.append(gid[r])
            vals.append(s)
        scatters.append(sp.coo_matrix((vals, (rows, cols)), shape=(dims[k], ndof)).tocsr())
    return Glue(scatters, ndof)


def _pair_sign(ps, ka, fa, key_a, kb, fb, key_b):
    """Orientation sign of the b-side trace relative to the a-side one,
    compared at one matched face point (tangential projections)."""
    if key_a[0] in ("s", "s2"):
        return 1
    itf_found = None
    for itf in ps.interfaces:
        if itf.a == (ka, fa) and itf.b == (kb, fb):
            itf_found = itf
    ndim = ps.geoms[ka].ndim
    perm, flip = itf_found.normalized(ndim - 1)
    ca = _key_coords(key_a)
    cb = [None] * (ndim - 1)
    for i in range(ndim - 1):
        src = 1.0 - ca[i] if flip[i] else ca[i]
        cb[perm[i]] = src
    va = _probe_with_coords(ps.spaces[ka], ps.geoms[ka], fa, key_a, ca)
    vb = _probe_with_coords(ps.spaces[kb], ps.geoms[kb], fb, key_b, tuple(cb))
    dot = float(np.dot(va, vb))
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na < 1e-14 or nb < 1e-14 or abs(abs(dot) / (na * nb) - 1.0) > 1e-6:
        raise ConformityError(f"trace probe mismatch for {key_a} vs {key_b}")
    return 1 if dot > 0 else -1


def _probe_with_coords(space, geom, face, key, coords):
    axis, side = face
    if isinstance(space, Vector2D):
        comp = 1 - axis
        sp2 = (space.c1, space.c2)[comp]
        lkv = key[2]
        pt = _face_point(2, face, coords)
        val = float(scaled_eval(lkv, sp2.degrees[comp], sp2.scalings[comp], coords[0])[0])
        uhat = np.zeros(2)
        uhat[comp] = val
        J, det = geom.jacobian_dets([pt])
        u = np.linalg.solve(J[0].T, uhat)
        tang = J[0][:, comp] / np.linalg.norm(J[0][:, comp])
        return (u @ tang) * tang
    if isinstance(space, Complex3D):
        blocks = space.x1_blocks()
        pt = _face_point(3, face, coords)
        kind = key[0]
        uhat = np.zeros(3)
        if kind == "t2":
            m = key[1]
            s2d, kvz, _ = blocks[m]
            uhat[m] = _eval_2d_factor(s2d, key[2], key[3], (pt[0], pt[1]))
        else:
            compf = key[1]
            m = (1 - axis) if compf == 0 else 2
            s2d, kvz, zscal = blocks[m]
            lkv_t, lkv_z = key[2], key[3]
            fval = float(
                scaled_eval(lkv_t, s2d.degrees[1 - axis], s2d.scalings[1 - axis], coords[0])[0]
            )
            zval = float(scaled_eval(lkv_z, kvz.degree, zscal, coords[1])[0])
            uhat[m] = fval * zval
        J, det = geom.jacobian_dets([pt])
        u = np.linalg.solve(J[0].T, uhat)
        n = _outward_normal(J[0], axis, side)
        return u - (u @ n) * n
    raise TypeError(type(space))


# -- global assembly ---------------------------------------------------------------


def global_operator(glue_src: Glue, glue_dst: Glue, local_ops):
    """Global differential operator from per-patch operators and two glues.

    Each global target row is taken from its master patch representative.
    """
    ndst = glue_dst.ndof
    rows = []
    masters = [None] * ndst
    for k, S in enumerate(glue_dst.scatters):
        coo = S.tocoo()
        for i, g, s in zip(coo.row, coo.col, coo.data):
            if masters[g] is None:
                masters[g] = (k, int(i), int(s))
    blocks = []
    for g in range(ndst):
        k, i, s = masters[g]
        row = s * (local_ops[k].getrow(i) @ glue_src.scatters[k])
        blocks.append(row)
    return sp.vstack(blocks).tocsr()
