"""Conformity checking and degree-of-freedom merging across patch interfaces.

Interfaces are declared (patch, face) pairs with an axis permutation/flip
code, then verified: matching trace spaces under the coordinate map and
pointwise geometric agreement.  Merging identifies trace basis functions by
their local knot vectors in face coordinates; orientation signs are fixed by
evaluating both physical traces at matched face points (one batched probe
per interface side), with the lower-indexed patch as the master (+1).

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
    scalar = key[0] in ("s", "s2")  # scalar keys carry no component
    lkvs = key[1:] if scalar else key[2:]
    new = [None] * len(lkvs)
    for i, lk in enumerate(lkvs):
        new[perm[i]] = _flip_lkv(lk) if flip[i] else lk
    if scalar:
        return (key[0], *new)
    return (key[0], perm[key[1]], *new)


# -- geometric probes for orientation signs ----------------------------------------


def _support_mid(lkv):
    return float(lkv[0] + lkv[-1]) / 2.0


def _face_points(ndim, face, coords):
    """Parametric points of face coordinates ``coords`` (npts, ndim-1)."""
    axis, side = face
    pts = np.full((len(coords), ndim), float(side))
    pts[:, list(_face_axes(ndim, axis))] = coords
    return pts


def _map_coords(coords, perm, flip):
    """Face coordinates (npts, nface) on side a mapped onto side b."""
    out = np.empty_like(coords)
    for i in range(coords.shape[1]):
        out[:, perm[i]] = 1.0 - coords[:, i] if flip[i] else coords[:, i]
    return out


def _eval_2d_factor(s2d, lkv1, lkv2, xy):
    v1 = scaled_eval(lkv1, s2d.degrees[0], s2d.scalings[0], xy[0])[0]
    v2 = scaled_eval(lkv2, s2d.degrees[1], s2d.scalings[1], xy[1])[0]
    return float(v1 * v2)


def _key_coords(key):
    kind = key[0]
    lkvs = key[1:] if kind in ("s", "s2") else key[2:]
    return tuple(_support_mid(lk) for lk in lkvs)


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
        Fa = ps.geoms[ka].eval(_face_points(ndim, fa, coords))
        Fb = ps.geoms[kb].eval(_face_points(ndim, fb, _map_coords(coords, perm, flip)))
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
        pairs = []
        for dof_b, key_b in _trace_dofs(ps.spaces[kb], fb):
            if key_b not in ta:
                raise ConformityError(f"unmatched trace function {key_b}")
            pairs.append((*ta[key_b], dof_b, key_b))
        for (dof_a, _, dof_b, _), sgn in zip(pairs, _pair_signs(ps, itf, perm, flip, pairs)):
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


def _pair_signs(ps, itf, perm, flip, pairs):
    """Orientation signs of the b-side traces relative to the a-side ones,
    per (dof_a, key_a, dof_b, key_b) of ``pairs``, compared at matched face
    points (tangential projections) with one probe per side; ``perm`` and
    ``flip`` map the a-face axes onto the b-face axes."""
    signs = np.ones(len(pairs), dtype=int)
    vec = [i for i, pair in enumerate(pairs) if pair[1][0] not in ("s", "s2")]
    if not vec:
        return signs
    (ka, fa), (kb, fb) = itf.a, itf.b
    keys_a, keys_b = [pairs[i][1] for i in vec], [pairs[i][3] for i in vec]
    ca = np.array([_key_coords(key) for key in keys_a])
    va = _trace_probes(ps.spaces[ka], ps.geoms[ka], fa, keys_a, ca)
    vb = _trace_probes(ps.spaces[kb], ps.geoms[kb], fb, keys_b, _map_coords(ca, perm, flip))
    dot = np.sum(va * vb, axis=1)
    for i, (d, na, nb) in enumerate(zip(dot, np.linalg.norm(va, axis=1), np.linalg.norm(vb, axis=1))):
        if na < 1e-14 or nb < 1e-14 or abs(abs(d) / (na * nb) - 1.0) > 1e-6:
            raise ConformityError(f"trace probe mismatch for {keys_a[i]} vs {keys_b[i]}")
    signs[vec] = np.where(dot > 0, 1, -1)
    return signs


def _trace_probes(space, geom, face, keys, coords):
    """Physical tangential traces of the functions ``keys``, each at its
    face point (rows of ``coords``), from one Jacobian evaluation."""
    axis = face[0]
    pts = _face_points(geom.ndim, face, coords)
    uhat = np.zeros_like(pts)
    blocks = space.x1_blocks() if isinstance(space, Complex3D) else None
    for i, (key, pt) in enumerate(zip(keys, pts)):
        if isinstance(space, Vector2D):
            comp = 1 - axis
            sp2 = (space.c1, space.c2)[comp]
            uhat[i, comp] = scaled_eval(key[2], sp2.degrees[comp], sp2.scalings[comp], pt[comp])[0]
        elif isinstance(space, Complex3D) and key[0] == "t2":
            s2d, _, _ = blocks[key[1]]
            uhat[i, key[1]] = _eval_2d_factor(s2d, key[2], key[3], pt[:2])
        elif isinstance(space, Complex3D):
            m = (1 - axis) if key[1] == 0 else 2
            s2d, kvz, zscal = blocks[m]
            fval = scaled_eval(key[2], s2d.degrees[1 - axis], s2d.scalings[1 - axis], pt[1 - axis])[0]
            uhat[i, m] = fval * scaled_eval(key[3], kvz.degree, zscal, pt[2])[0]
        else:
            raise TypeError(type(space))
    J, _ = geom.jacobian_dets(pts)
    u = np.linalg.solve(J.transpose(0, 2, 1), uhat[:, :, None])[:, :, 0]
    if isinstance(space, Vector2D):
        tang = J[:, :, 1 - axis] / np.linalg.norm(J[:, :, 1 - axis], axis=1)[:, None]
        return np.sum(u * tang, axis=1)[:, None] * tang
    n = np.cross(*(J[:, :, a] for a in range(3) if a != axis))  # either orientation
    n /= np.linalg.norm(n, axis=1)[:, None]
    return u - np.sum(u * n, axis=1)[:, None] * n


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
