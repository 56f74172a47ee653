"""Conformity checking and degree-of-freedom merging across patch interfaces.

Interfaces are declared (patch, face) pairs with an axis permutation/flip
code, then verified: matching trace spaces under the coordinate map and
pointwise geometric agreement.  Both sides' trace functions come from
:func:`splinecomplex.assembly.traces`; one matcher identifies them by the
key (face component, local knot vectors), the a side's key permuted and
flipped into b-face coordinates.

Once the geometry check has verified F_a = F_b o phi on the face, traces
pull back covariantly, so a matched tangential component changes sign
exactly when its face axis is flipped; scalar traces and unflipped
components keep their sign.  The matched pairs then form a signed graph
on the local dofs, and one connected-components labelling of its doubled
graph (a node per dof and sign) gives the shared entities: each has the
lowest dof among its members as master (+1), so the lower patch wins.

Faces are (axis, side) pairs; the face coordinates are the remaining
parametric axes in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .assembly import traces

__all__ = [
    "PatchSet",
    "Interface",
    "ConformityError",
    "check_conformity",
    "build_glue",
    "global_operator",
]

# check_conformity: face samples per axis and the largest geometric mismatch
_SAMPLES = 7
_GEOM_TOL = 1e-10


class ConformityError(ValueError):
    pass


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


# -- trace matching ------------------------------------------------------------


def _face_axes(ndim, axis):
    return tuple(d for d in range(ndim) if d != axis)


def _key(record, perm, flip):
    """Match key (c, local knot vectors) of a trace record in the face
    coordinates its face axes map onto by ``perm`` and ``flip``."""
    _, c, lkvs = record
    out = [None] * len(lkvs)
    for i, lkv in enumerate(lkvs):
        out[perm[i]] = tuple(1 - t for t in reversed(lkv)) if flip[i] else lkv
    return (None if c is None else perm[c], *out)


def _match(ps: PatchSet, itf: Interface):
    """(record on a, record on b) per trace function of the interface,
    matched by key; ConformityError if the trace spaces differ."""
    (ka, fa), (kb, fb) = itf.a, itf.b
    n = ps.geoms[ka].ndim - 1
    perm, flip = itf.normalized(n)
    ta = {_key(r, perm, flip): r for r in traces(ps.spaces[ka], fa)}
    tb = {_key(r, range(n), [False] * n): r for r in traces(ps.spaces[kb], fb)}
    if ta.keys() != tb.keys():
        first = sorted(ta.keys() ^ tb.keys(), key=str)[0]
        raise ConformityError(f"trace spaces differ, first mismatch {first}")
    return [(ta[key], rb) for key, rb in tb.items()]


# -- conformity -----------------------------------------------------------------


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


def _checked(ps: PatchSet):
    """Per interface: (interface, matched records or None, ok, message), the
    conformity check of :func:`check_conformity` plus the matched records
    :func:`build_glue` merges."""
    for itf in ps.interfaces:
        try:
            pairs = _match(ps, itf)
        except ConformityError as exc:
            yield itf, None, False, str(exc)
            continue
        (ka, fa), (kb, fb) = itf.a, itf.b
        ndim = ps.geoms[ka].ndim
        perm, flip = itf.normalized(ndim - 1)
        grid = np.linspace(0.05, 0.95, _SAMPLES)
        coords = np.stack(np.meshgrid(*([grid] * (ndim - 1)), indexing="ij"), axis=-1).reshape(-1, ndim - 1)
        Fa = ps.geoms[ka].eval(_face_points(ndim, fa, coords))
        Fb = ps.geoms[kb].eval(_face_points(ndim, fb, _map_coords(coords, perm, flip)))
        err = float(np.max(np.linalg.norm(Fa - Fb, axis=1)))
        yield itf, pairs, err < _GEOM_TOL, f"max geometric mismatch {err:.2e}"


def check_conformity(ps: PatchSet):
    """Per interface: (interface, ok, message); ok when the trace keys match
    under the coordinate map and the two geometry images agree pointwise."""
    return [(itf, ok, msg) for itf, _, ok, msg in _checked(ps)]


# -- glue -----------------------------------------------------------------------


@dataclass
class Glue:
    """Scatter maps: per patch a sparse (local x global) matrix with signs."""

    scatters: list
    ndof: int

    def global_matrix(self, locals_):
        """Glued sum of the patch matrices, no sparse products: entry (i, j, a)
        of a patch goes to (g[i], g[j]) with sign s[i] s[j], (g, s) the signed
        row map of its scatter; the relabelled patches are summed in order."""
        out = None
        for S, A in zip(self.scatters, locals_):
            A = sp.csr_matrix(A)
            g, s, counts = S.indices, S.data, np.diff(A.indptr)
            order = np.argsort(g, kind="stable")  # the local rows in global row order
            shift = A.indptr[order] - np.r_[0, np.cumsum(counts[order])[:-1]]  # a row block's start in A minus in P
            take = np.repeat(shift, counts[order]) + np.arange(A.nnz)  # the entries of A in P's order
            indptr = np.r_[0, np.cumsum(np.bincount(g, counts, self.ndof))].astype(A.indptr.dtype)
            data = (np.repeat(s, counts) * s[A.indices] * A.data)[take]
            P = sp.csr_matrix((data, g[A.indices[take]], indptr), shape=(self.ndof, self.ndof))
            P.sum_duplicates()  # sorts each row, and sums any entry two local rows share
            out = P if out is None else out + P
        return out

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


def build_glue(ps: PatchSet) -> Glue:
    """Merge coincident interface dofs with orientation from the lower patch.

    A matched pair (x, y) of local dofs imposes value_x = -value_y when its
    component is along a flipped face axis, value_x = value_y otherwise.
    On the doubled graph, with nodes x+ and x- per dof, a kept pair joins
    x+ to y+ and x- to y-, a reversed one x+ to y- and x- to y+.  An entity
    is a pair of mirrored components {label(x+), label(x-)}, numbered by
    its lowest dof (the master); a dof's sign is + when x+ shares its
    master's label.  x+ and x- in one component is a sign cycle.
    """
    checked = list(_checked(ps))
    bad = [(itf, ok, msg) for itf, _, ok, msg in checked if not ok]
    if bad:
        raise ConformityError(str(bad[0]))
    offset = np.concatenate([[0], np.cumsum([s.dim for s in ps.spaces])])
    total = int(offset[-1])
    x, y, flipped = [], [], []
    for itf, pairs, _, _ in checked:
        (ka, _), (kb, _) = itf.a, itf.b
        _, flip = itf.normalized(ps.geoms[ka].ndim - 1)
        for (da, c, _), (db, _, _) in pairs:
            x.append(offset[ka] + da)
            y.append(offset[kb] + db)
            flipped.append(c is not None and bool(flip[c]))
    x, y, flipped = np.array(x, dtype=int), np.array(y, dtype=int), np.array(flipped, dtype=bool)
    rows, cols = np.r_[x, x + total], np.r_[y + total * flipped, y + total * ~flipped]
    graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * total, 2 * total))
    labels = connected_components(graph, directed=False)[1]
    plus, minus = labels[:total], labels[total:]
    if np.any(plus == minus):
        raise ConformityError("inconsistent orientation around an interface entity")
    _, first, entity = np.unique(np.minimum(plus, minus), return_index=True, return_inverse=True)
    master = first[entity]  # the lowest dof of each dof's entity
    sign = np.where(plus == plus[master], 1, -1)
    masters, gid = np.unique(master, return_inverse=True)  # global dofs numbered by their master
    scatters = [sp.csr_matrix((sign[a:b], gid[a:b], np.arange(b - a + 1)), shape=(b - a, masters.size)) for a, b in zip(offset, offset[1:])]
    return Glue(scatters, masters.size)


# -- global assembly ---------------------------------------------------------------


def global_operator(glue_src: Glue, glue_dst: Glue, local_ops):
    """Global differential operator from per-patch operators and two glues.

    Each global target row is taken from its master patch representative:
    the first (patch, local row) that scatters to it, in patch order.  Per
    patch, the signed selection P_k of its master rows gives the sum of
    P_k @ op_k @ S_k over the patches, S_k the source scatters.
    """
    ndst = glue_dst.ndof
    taken = np.zeros(ndst, dtype=bool)
    A = None
    for D, op, S in zip(glue_dst.scatters, local_ops, glue_src.scatters):
        g = D.indices[D.indptr[:-1]]  # one signed entry per local row
        _, first = np.unique(g, return_index=True)
        rows = first[~taken[g[first]]]
        taken[g[rows]] = True
        P = sp.csr_matrix((D.data[D.indptr[rows]], (g[rows], rows)), shape=(ndst, D.shape[0]))
        term = P @ op @ S
        A = term if A is None else A + term
    return A.tocsr()
