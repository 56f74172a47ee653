"""Two-dimensional T-spline de Rham complexes.

From one analysis-suitable T-mesh M0, four derived meshes carry the scalar,
vector, rotated-vector and top-form spaces, each derived from M0 by one
rule (:meth:`~splinecomplex.tmesh.TMesh2D.with_segments`): the mesh of a
derived space lowers the degree in its differentiated directions and adds
the first-bay face extensions that run along them (odd degree only).  The
boundary band of a direction of degree p holds floor(p/2) + 1 line copies,
so lowering an even degree drops one outer copy at each end; at even
degree a derived mesh is the same tiling rendered at the lowered degrees.

Operator matrices are built column by column from the univariate derivative
decomposition.  The differentiated direction always yields +-1 entries in
the Curry-Schoenberg-scaled target basis.  In the transverse direction the
two windows are located by exact local-knot-vector matching, on the rank
arrays of the spaces, all anchors at once (the four derived meshes rank the
same line values); where the derived mesh refines the transverse knot line
(possible next to extension bays) the source window is expanded instead
by the exact knot insertion of :mod:`splinecomplex.bspline` (Boehm's rule on
line ranks, :func:`~splinecomplex.bspline._refine`).  Matrices are therefore
rational; they are stored as integer matrices over one common
denominator so compositions and ranks stay exact, and they reduce
bit-for-bit to the signed B-spline pattern on tensor input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .bspline import _refine
from .complexes import ExactnessReport, _merge_reports, verify_sequence
from .tmesh import RawTMesh, TMesh2D, TMeshError, TsplineSpace, validate_tmesh

__all__ = [
    "ComplexMeshes",
    "TsplineComplex",
    "derive_complex_meshes",
    "build_tspline_complex",
    "verify_t_exactness",
]


@dataclass
class ComplexMeshes:
    """The four derived T-meshes of one scalar mesh and degree."""

    degree: int
    M0: TMesh2D
    M11: TMesh2D
    M12: TMesh2D
    M2: TMesh2D

    def extended_meshes_agree(self) -> bool:
        """Set-equality of positive-length mesh lines of the four extended
        meshes (boundary repetitions collapse)."""
        ref = self.M0.extended().line_segments_by_value()
        return all(
            m.extended().line_segments_by_value() == ref
            for m in (self.M11, self.M12, self.M2)
        )


def derive_complex_meshes(raw: RawTMesh, p: int) -> ComplexMeshes:
    """Derive the meshes for the scalar, vector and top-form spaces.

    Requires a valid (:func:`~splinecomplex.tmesh.validate_tmesh`),
    analysis-suitable input with interior multiplicities at most p (all
    checked); equal degree in both directions is assumed throughout.
    """
    for (axis, k), m in sorted(raw.multiplicities.items()):
        if m > p:
            value = (raw.breakpoints_x if axis == "x" else raw.breakpoints_y)[k]
            raise TMeshError(f"interior multiplicity {m} of the {axis} line {value} exceeds the degree {p}")
    M0 = validate_tmesh(raw, (p, p))
    ok, pair = M0.is_analysis_suitable()
    if not ok:
        raise TMeshError(f"input mesh is not analysis-suitable: {pair}")
    exts = M0.compute_extensions() if p % 2 == 1 else []  # even degree adds no first bays
    segs_h = [_first_bay(M0, e) for e in exts if e.orientation == "h"]
    segs_v = [_first_bay(M0, e) for e in exts if e.orientation == "v"]
    M11 = M0.with_segments(segs_h, (p - 1, p))
    M12 = M0.with_segments(segs_v, (p, p - 1))
    M2 = M11.with_segments(segs_v, (p - 1, p - 1))
    return ComplexMeshes(p, M0, M11, M12, M2)


def _first_bay(mesh: TMesh2D, ext):
    """Face-extension segment truncated to its first bay."""
    i, j, orientation = ext.junction
    start = i if orientation == "h" else j
    lo, hi = ext.face_range
    sense = 1 if hi > start else -1
    end = mesh._walk(orientation, ext.line_index, start, sense, 1)
    return (orientation, ext.line_index, min(start, end), max(start, end))


@dataclass
class TsplineComplex:
    """Spaces and operator matrices of the two T-spline sequences.

    ``operators`` holds the float matrices 'grad', 'rot', 'rotvec' and
    'div'; the last two act on the rotated space, so the column blocks of
    'div' are (component on M12, component on M11).  ``operators_int`` holds
    the same matrices scaled by ``denominators[name]`` to integers for exact
    arithmetic.
    """

    meshes: ComplexMeshes
    Y0: TsplineSpace
    Y1: tuple  # (component 1 on M11, component 2 on M12)
    Y2: TsplineSpace
    operators: dict
    operators_int: dict
    denominators: dict

    @property
    def degree(self) -> int:
        return self.meshes.degree

    def space_dim(self, j) -> int:
        if j == 0:
            return self.Y0.dim
        if j in (1, "1*"):
            return self.Y1[0].dim + self.Y1[1].dim
        return self.Y2.dim

    @property
    def dims(self):
        return (self.space_dim(0), self.space_dim(1), self.space_dim(2))


def _abscissa_locator(lines, window, degree):
    """Locator of the anchor abscissa of a derivative-target window of ranks
    on the line table ``lines`` of its axis."""
    q = degree
    if q % 2 == 1:
        r = window[(q + 1) // 2]
        if lines.count(r) != 1:
            raise TMeshError("ambiguous line abscissa for derivative target")
        return ("line", lines.bounds[r])
    lo, hi = window[q // 2], window[q // 2 + 1]
    if lo == hi:
        if lines.count(lo) < 2:
            raise TMeshError("no zero-width span for degenerate abscissa")
        return ("span", lines.bounds[lo])
    return lines.midpoint(lo, hi)


def _derivative_block(src: TsplineSpace, dst: TsplineSpace, direction: int):
    """Exact matrix of the partial derivative mapping src into dst.

    Anchors match by their rank keys, so both meshes must rank the same
    distinct line values.  Returns (int_csr, denominator).
    """
    if src.mesh.line_values != dst.mesh.line_values:
        raise TMeshError("source and target meshes do not share one table of distinct line values")
    t_dir = 1 - direction
    values, V = src.mesh.line_values[t_dir], dst.mesh.lines[t_dir].ints
    if src.scalings[t_dir] != dst.scalings[t_dir]:
        raise TMeshError("mixed transverse scalings are not wired")
    index = dst.mesh.line_index  # built by the target space's rank arrays
    K, T = src.ranks[direction], src.ranks[t_dir]

    def lookup(along, across):  # target indices of rank keys, -1 where none
        return dst.key_index(*((along, across) if direction == 0 else (across, along)))

    # d/dx N[K] = c N[K[:-1]] - c' N[K[1:]]; a term with zero support vanishes
    targets = np.vstack([K[:, :-1], K[:, 1:]])
    signs = np.repeat([1, -1], src.dim)
    cols = np.tile(np.arange(src.dim), 2)
    live = np.flatnonzero(targets[:, -1] != targets[:, 0])
    targets, signs, cols = targets[live], signs[live], cols[live]
    found = lookup(targets, T[cols])
    direct = found >= 0
    # the rest need their transverse window refined on the derived mesh
    refined = []  # (target, window, anchor, coefficient)
    for target, sign, a in zip(*(x[~direct].tolist() for x in (targets, signs, cols))):
        T_a = T[a].tolist()
        floc = _abscissa_locator(dst.mesh.lines[direction], target, dst.degrees[direction])
        t_open = [t for t in T_a[1:-1] if T_a[0] < t < T_a[-1]]
        missing = index[t_dir].between(floc, T_a[0], T_a[-1])  # ascending; removals keep it so
        for t in t_open:
            if t not in missing:
                raise TMeshError(
                    f"derivative of anchor {a}: transverse knots "
                    f"{[values[t] for t in t_open]} not visible on the derived mesh (non-AS input?)"
                )
            missing.remove(t)
        nums, den = _refine(T_a, missing, V)
        if src.scalings[t_dir] == "D":  # D scaling: c_w times |w| / |T_a|
            nums, den = {w: n * (V[w[-1]] - V[w[0]]) for w, n in nums.items()}, den * (V[T_a[-1]] - V[T_a[0]])
        refined.extend((target, w, a, Fraction(sign * n, den)) for w, n in nums.items())
    den = math.lcm(*(c.denominator for *_, c in refined))
    rows, cols, ints = found[direct], cols[direct], signs[direct] * den
    if refined:
        along, across, anchor, coeff = zip(*refined)
        hit = lookup(np.array(along), np.array(across))
        if np.any(hit < 0):
            k = int(np.argmax(hit < 0))
            raise TMeshError(
                f"derivative of anchor {anchor[k]} has no target with transverse "
                f"local knot vector {[values[t] for t in across[k]]} in the derived space"
            )
        rows, cols, ints = np.r_[rows, hit], np.r_[cols, anchor], np.r_[ints, [c.numerator * (den // c.denominator) for c in coeff]]
    A = sp.coo_matrix((ints, (rows, cols)), shape=(dst.dim, src.dim), dtype=np.int64).tocsr()
    A.sum_duplicates()
    return A, den


def build_tspline_complex(cm: ComplexMeshes) -> TsplineComplex:
    """Spaces with their B/D scalings and the four operator matrices."""
    Y0 = TsplineSpace(cm.M0, ("B", "B"))
    Y1c1 = TsplineSpace(cm.M11, ("D", "B"))
    Y1c2 = TsplineSpace(cm.M12, ("B", "D"))
    Y2 = TsplineSpace(cm.M2, ("D", "D"))
    G1, G2 = _derivative_block(Y0, Y1c1, 0), _derivative_block(Y0, Y1c2, 1)
    R1, R2 = _derivative_block(Y1c1, Y2, 1), _derivative_block(Y1c2, Y2, 0)
    ints, dens = {}, {}
    for name, stack, blocks in (
        ("grad", sp.vstack, ((1, G1), (1, G2))),
        ("rot", sp.hstack, ((-1, R1), (1, R2))),
        ("rotvec", sp.vstack, ((1, G2), (-1, G1))),
        ("div", sp.hstack, ((1, R2), (1, R1))),
    ):
        dens[name] = den = math.lcm(*(d for _, (_, d) in blocks))
        ints[name] = stack([A * (sign * den // d) for sign, (A, d) in blocks]).tocsr()
    ops = {k: ints[k].astype(float) / dens[k] for k in ints}
    return TsplineComplex(cm, Y0, (Y1c1, Y1c2), Y2, ops, ints, dens)


def verify_t_exactness(cx: TsplineComplex) -> ExactnessReport:
    """Certified rank identities for both T-spline sequences.

    Runs on the integer-scaled matrices (scaling changes no rank and no
    kernel).  The constant's coefficient vector is all ones, as the basis is
    a partition of unity on an analysis-suitable T-mesh; ``A @ 1 == 0`` is
    checked exactly for grad and rotvec.
    """
    d0, d1, d2 = cx.dims
    oi = cx.operators_int
    rep = verify_sequence([oi["grad"], oi["rot"]], [d0, d1, d2])
    rep2 = verify_sequence([oi["rotvec"], oi["div"]], [d0, d1, d2], prefix="*")
    merged = _merge_reports(rep, rep2)
    merged.identities["dimY0+dimY2=dimY1+1"] = d0 + d2 == d1 + 1
    return merged
