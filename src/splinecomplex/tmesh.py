"""Two-dimensional T-meshes: structure, extensions, analysis-suitability,
anchors and local-knot-vector inference, extended mesh, T-spline evaluation.

A raw T-mesh is a rectangular tiling of the unit square given by distinct
breakpoint tables and faces as index rectangles.  Rendering it for degrees
(p1, p2) draws its lines by :func:`splinecomplex.bspline._render_lines`;
all structure queries (census,
T-junctions, extensions, anchor tracing) run on the rendered index grid, so
segment comparisons are exact integer index comparisons.  Anchor lookups and
local-knot-vector keys likewise run on integer line ranks (a line's position
among the distinct line values of its axis): all anchors of a mesh are
located and traced at once into one int array of ranks per axis, and the
Fraction knots are looked up from the ranks only where they are asked for.

The faces are the connected components of the cells joined across missing
edges, each of which must fill its bounding box.  Each mesh also holds two
per-axis structures, built once: a germ table (which of the edges left,
right, below and above every grid point exist), from which the
dangling-edge check, the vertices and the T-junctions are read, and the
cached ``line_index``, one :class:`_LineIndex` per axis listing the lines
crossed by every ray, which serves extension walks, the strong-AS check,
anchor tracing and the derivative-target refinement.

Conventions fixed here:

* lines terminating at the outer boundary pass through the whole repeated
  boundary band (as in the tensor-product rendering), so boundary line
  repetitions count as crossed lines for extensions;
* lines terminating at an interior repeated line stop at the nearest copy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .bspline import KnotRows, _render_lines, as_fraction, scaled_eval

__all__ = [
    "RawTMesh",
    "TMesh2D",
    "TMeshError",
    "Extension",
    "Anchor2D",
    "TsplineSpace",
    "validate_tmesh",
    "tensor_raw_tmesh",
]


class TMeshError(ValueError):
    """Structured T-mesh validation failure."""


def _ints(values) -> bool:
    """All ints or NumPy integers, never bools; checked once per type."""
    return all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in set(map(type, values)))


@dataclass(frozen=True)
class RawTMesh:
    """Tiling-level description: distinct breakpoints, faces as index boxes.

    ``faces`` entries are (i1, j1, i2, j2) with i referring to x-breakpoints.
    ``multiplicities`` optionally maps ("x"|"y", line index) to an interior
    line multiplicity (constant along the line): 0 < index < last, an
    integer of at least 1.  A face or multiplicity that breaks these rules
    raises :class:`TMeshError` naming it.
    """

    breakpoints_x: tuple
    breakpoints_y: tuple
    faces: tuple
    multiplicities: dict = field(default_factory=dict)

    def __post_init__(self):
        bx = tuple(as_fraction(b) for b in self.breakpoints_x)
        by = tuple(as_fraction(b) for b in self.breakpoints_y)
        object.__setattr__(self, "breakpoints_x", bx)
        object.__setattr__(self, "breakpoints_y", by)
        for bp in (bx, by):
            if bp[0] != 0 or bp[-1] != 1 or any(b >= c for b, c in zip(bp, bp[1:])):
                raise TMeshError("breakpoint tables must increase strictly from 0 to 1")
        four = [isinstance(f, (tuple, list)) and len(f) == 4 for f in self.faces]
        if not (all(four) and _ints(chain.from_iterable(self.faces))):
            f = next(f for f, ok in zip(self.faces, four) if not (ok and _ints(f)))
            raise TMeshError(f"face {f!r} is not four integer indices")
        last = {"x": len(bx) - 1, "y": len(by) - 1}
        for key, m in self.multiplicities.items():
            axis, k = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if axis not in last or not (_ints((k,)) and 0 < k < last[axis]):
                raise TMeshError(f"multiplicity key {key!r} is not an ('x'|'y', interior line index) pair")
            if not (_ints((m,)) and m >= 1):
                raise TMeshError(f"multiplicity {m!r} of the {axis} line {k} is not an integer of at least 1")

    def edge_grids(self):
        """Raw elementary edge presence derived from the face list, by
        cumulative sums of the faces' corner marks."""
        nx, ny = len(self.breakpoints_x), len(self.breakpoints_y)
        i1, j1, i2, j2 = np.array(self.faces, dtype=int).reshape(-1, 4).T
        bad = ~((0 <= i1) & (i1 < i2) & (i2 < nx) & (0 <= j1) & (j1 < j2) & (j2 < ny))
        if bad.any():
            raise TMeshError(f"face {tuple(self.faces[np.argmax(bad)])} has out-of-range or empty extent")
        V, H, C = np.zeros((3, nx, ny), dtype=int)
        for i in (i1, i2):  # the left and right sides run up from j1 to j2
            np.add.at(V, (i, j1), 1)
            np.add.at(V, (i, j2), -1)
        for j in (j1, j2):  # the bottom and top sides run from i1 to i2
            np.add.at(H, (i1, j), 1)
            np.add.at(H, (i2, j), -1)
        for i, j, sign in ((i1, j1, 1), (i2, j1, -1), (i1, j2, -1), (i2, j2, 1)):
            np.add.at(C, (i, j), sign)
        VE, HE = V.cumsum(1)[:, :-1] > 0, H.cumsum(0)[:-1] > 0
        cover = C.cumsum(0).cumsum(1)[:-1, :-1]
        if np.any(cover != 1):
            bad = np.argwhere(cover != 1)[0]
            kind = "gap" if cover[tuple(bad)] == 0 else "overlap"
            raise TMeshError(f"faces do not tile the square: {kind} at cell {tuple(bad)}")
        return VE, HE


def tensor_raw_tmesh(breakpoints_x, breakpoints_y) -> RawTMesh:
    """Fully meshed tensor-product tiling over the given breakpoints."""
    nx, ny = len(breakpoints_x), len(breakpoints_y)
    faces = tuple(
        (i, j, i + 1, j + 1) for j in range(ny - 1) for i in range(nx - 1)
    )
    return RawTMesh(tuple(breakpoints_x), tuple(breakpoints_y), faces)


@dataclass(frozen=True)
class Extension:
    """Extension of one T-junction: face part forward, edge part backward."""

    junction: tuple  # (i, j, orientation)
    orientation: str  # 'h' or 'v': direction of the missing edge
    line_index: int  # the row (h) or column (v) the segments lie on
    face_range: tuple  # (lo, hi) rendered indices along the segment, inclusive
    edge_range: tuple
    face_bays: int
    edge_bays: int

    @property
    def full_range(self) -> tuple:
        return (min(self.face_range[0], self.edge_range[0]), max(self.face_range[1], self.edge_range[1]))


@dataclass(frozen=True)
class Anchor2D:
    """T-spline anchor: entity locators, exact position, local knot vectors."""

    index: int
    position: tuple  # (Fraction, Fraction)
    locators: tuple  # per direction: ('line', k) or ('span', m)
    lkv1: tuple
    lkv2: tuple
    # (ranks of lkv1, ranks of lkv2) among the mesh's distinct line values:
    # the exact identity by which spaces of one mesh family match anchors
    key: tuple

    @property
    def support(self):
        return (self.lkv1[0], self.lkv1[-1], self.lkv2[0], self.lkv2[-1])


class TMesh2D:
    """Rendered, degree-aware T-mesh on an index grid with repeated lines."""

    def __init__(self, xs, ys, VE, HE, degrees):
        self.xs = list(xs)
        self.ys = list(ys)
        self.VE = np.asarray(VE, dtype=bool)
        self.HE = np.asarray(HE, dtype=bool)
        self.degrees = tuple(degrees)
        if self.VE.shape != (len(self.xs), len(self.ys) - 1):
            raise TMeshError("vertical edge grid has wrong shape")
        if self.HE.shape != (len(self.xs) - 1, len(self.ys)):
            raise TMeshError("horizontal edge grid has wrong shape")
        for t in (self.xs, self.ys):
            if t[0] != 0 or t[-1] != 1 or any(a > b for a, b in zip(t, t[1:])):
                raise TMeshError("line tables must be non-decreasing from 0 to 1")
        self._faces = None
        self._validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_raw(cls, raw: RawTMesh, degrees) -> "TMesh2D":
        p1, p2 = degrees
        rawVE, rawHE = raw.edge_grids()
        (xs, xr), (ys, yr) = (
            _render_lines(bp, [raw.multiplicities.get((axis, i), 1) for i in range(1, len(bp) - 1)], p)
            for axis, bp, p in (("x", raw.breakpoints_x, p1), ("y", raw.breakpoints_y, p2))
        )
        return cls(xs, ys, _render_edges(rawVE, xr, yr), _render_edges(rawHE.T, yr, xr).T, degrees)

    def with_segments(self, segments, degrees=None) -> "TMesh2D":
        """Copy with horizontal/vertical segments added as mesh edges."""
        VE = self.VE.copy()
        HE = self.HE.copy()
        for orientation, line, lo, hi in segments:
            if orientation == "h":
                HE[lo:hi, line] = True
            else:
                VE[line, lo:hi] = True
        return TMesh2D(self.xs, self.ys, VE, HE, degrees or self.degrees)

    # -- basic structure -----------------------------------------------------

    @property
    def nx(self) -> int:
        return len(self.xs)

    @property
    def ny(self) -> int:
        return len(self.ys)

    def _validate(self):
        if not (self.HE[:, 0].all() and self.HE[:, -1].all() and self.VE[0, :].all() and self.VE[-1, :].all()):
            raise TMeshError("outer boundary is not fully meshed")
        # the germ table: edges left, right, below and above every grid point
        g = np.zeros((4, self.nx, self.ny), dtype=bool)
        g[0, 1:], g[1, :-1], g[2, :, 1:], g[3, :, :-1] = self.HE, self.HE, self.VE, self.VE
        nh, nv = g[0].astype(int) + g[1], g[2].astype(int) + g[3]  # bool + bool would be an OR
        if np.any(nh + nv == 1):
            i, j = np.argwhere(nh + nv == 1)[0]
            raise TMeshError(f"dangling edge at grid point ({i}, {j})")
        self.germs = g
        # a vertex is a grid point with germs that is not a pass-through
        self._vertex = (nh + nv > 2) | ((nh == 1) & (nv == 1))
        inner = [[0 < t < 1 for t in table] for table in (self.xs, self.ys)]
        self._tjunction = (nh + nv == 3) & np.outer(*inner)
        self._faces = self._extract_faces()

    def _extract_faces(self):
        """Faces are the connected components of the cells joined across
        missing edges; each must fill its bounding box."""
        shape = (self.nx - 1, self.ny - 1)
        cell = np.arange(np.prod(shape)).reshape(shape, order="F")  # cell[i, j] = i + (nx - 1) j
        open_v, open_h = ~self.VE[1:-1], ~self.HE[:, 1:-1]
        a = np.r_[cell[:-1][open_v], cell[:, :-1][open_h]]
        b = np.r_[cell[1:][open_v], cell[:, 1:][open_h]]
        joined = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(cell.size, cell.size))
        n, label = connected_components(joined, directed=False)
        ij = np.indices(shape).reshape(2, -1, order="F")  # (i, j) of each cell
        lo, hi = np.full((2, n), cell.size), np.zeros((2, n), dtype=int)
        for d in (0, 1):
            np.minimum.at(lo[d], label, ij[d])
            np.maximum.at(hi[d], label, ij[d] + 1)
        bad = np.flatnonzero(np.bincount(label) != np.prod(hi - lo, axis=0))
        if bad.size:
            cells = [tuple(c) for c in ij.T[label == bad[0]].tolist()]
            raise TMeshError(f"non-rectangular face with cells {sorted(cells)[:4]}...")
        order = np.lexsort((lo[0], lo[1]))  # by (j1, i1)
        return [tuple(f) for f in np.vstack([lo, hi]).T[order].tolist()]

    @property
    def faces(self):
        """Faces as (i1, j1, i2, j2) rendered-index rectangles, row-major order."""
        return list(self._faces)

    def face_is_empty(self, f) -> bool:
        i1, j1, i2, j2 = f
        return self.xs[i2] == self.xs[i1] or self.ys[j2] == self.ys[j1]

    def positive_faces(self):
        return [f for f in self._faces if not self.face_is_empty(f)]

    # -- census -----------------------------------------------------------------

    def vertices(self):
        return [(i, j) for j, i in np.argwhere(self._vertex.T).tolist()]

    def horizontal_edges(self):
        """Maximal horizontal edges as (i_start, i_end, j), row-major order."""
        j, a, b = (x.tolist() for x in _runs(self.HE.T, self._vertex.T))
        return list(zip(a, b, j))

    def vertical_edges(self):
        """Maximal vertical edges as (i, j_start, j_end), ordered by (j, i)."""
        i, a, b = _runs(self.VE, self._vertex)
        order = np.lexsort((i, a))
        return list(zip(i[order].tolist(), a[order].tolist(), b[order].tolist()))

    def t_junctions(self):
        """Interior vertices with exactly three edge germs, row-major, as
        (i, j, orientation of the missing germ, sense it points to)."""
        L, R, _, U = self.germs
        return [
            (i, j, "v", -1 if U[i, j] else 1) if L[i, j] and R[i, j] else (i, j, "h", -1 if R[i, j] else 1)
            for j, i in np.argwhere(self._tjunction.T).tolist()
        ]

    def census(self) -> dict:
        V = self.vertices()
        he = self.horizontal_edges()
        ve = self.vertical_edges()
        ts = self.t_junctions()
        return {
            "F0": len(self._faces),
            "V0": len(V),
            "E0": len(he) + len(ve),
            "E0_h": len(he),
            "E0_v": len(ve),
            "V0_h": sum(1 for t in ts if t[2] == "h"),
            "V0_v": sum(1 for t in ts if t[2] == "v"),
        }

    def euler(self) -> bool:
        c = self.census()
        return c["F0"] + c["V0"] == c["E0"] + 1

    def line_segments_by_value(self):
        """Positive-length maximal runs per distinct line value, for comparing
        meshes rendered at different degrees (repetitions collapsed)."""
        segs = set()
        for tag, E, along, at in (("h", self.HE.T, self.xs, self.ys), ("v", self.VE, self.ys, self.xs)):
            runs = zip(*(x.tolist() for x in _runs(E)))
            segs.update((tag, at[k], along[a], along[b]) for k, a, b in runs if along[b] > along[a])
        return segs

    # -- extensions and analysis-suitability -----------------------------------

    def _walk(self, orientation, line, start, step, bays):
        """March from a T-junction, returning the index after crossing
        ``bays`` lines (clipped at the outer boundary)."""
        hits = self.line_index["hv".index(orientation)].hits["line"][line]
        if step > 0:
            ahead = hits[bisect.bisect_right(hits, start) :][:bays]
        else:
            ahead = hits[: bisect.bisect_left(hits, start)][::-1][:bays]
        return ahead[-1] if ahead else start

    def compute_extensions(self):
        """Per T-junction, the face- and edge-extension segments.

        Face extensions run ceil(p/2) bays in the direction of the missing
        edge, edge extensions floor(p/2) bays the opposite way.
        """
        out = []
        for (i, j, orientation, sense) in self.t_junctions():
            p = self.degrees["hv".index(orientation)]
            fb = (p + 1) // 2
            eb = p // 2
            start, line = (i, j) if orientation == "h" else (j, i)
            f_end = self._walk(orientation, line, start, sense, fb)
            e_end = self._walk(orientation, line, start, -sense, eb)
            face_range = (min(start, f_end), max(start, f_end))
            edge_range = (min(start, e_end), max(start, e_end))
            out.append(
                Extension((i, j, orientation), orientation, line, face_range, edge_range, fb, eb)
            )
        return out

    def is_analysis_suitable(self):
        """True iff no horizontal extension intersects a vertical one.

        Returns (verdict, offending pair or None); closed segments, shared
        points count as intersections.
        """
        exts = self.compute_extensions()
        hs = [e for e in exts if e.orientation == "h"]
        vs = [e for e in exts if e.orientation == "v"]
        for eh in hs:
            a, b = eh.full_range
            for ev in vs:
                c, d = ev.full_range
                if a <= ev.line_index <= b and c <= eh.line_index <= d:
                    return False, (eh, ev)
        return True, None

    def check_strong_as(self):
        """AS plus: no two extensions of any kind intersect, and no extension
        crosses an interior mesh line of multiplicity greater than one."""
        ok, pair = self.is_analysis_suitable()
        if not ok:
            return False, ("extension intersection", pair)
        exts = self.compute_extensions()
        for kind in "hv":
            same = [e for e in exts if e.orientation == kind]
            for a in range(len(same)):
                for b in range(a + 1, len(same)):
                    e1, e2 = same[a], same[b]
                    if e1.line_index == e2.line_index:
                        lo1, hi1 = e1.full_range
                        lo2, hi2 = e2.full_range
                        if lo1 <= hi2 and lo2 <= hi1:
                            return False, ("parallel extension overlap", (e1, e2))
        for e in exts:
            index = self.line_index["hv".index(e.orientation)]
            lo, hi = e.full_range
            hits = index.hits["line"][e.line_index]
            for k in hits[bisect.bisect_left(hits, lo) : bisect.bisect_right(hits, hi)]:
                r = index.rank[k]
                if 0 < r < len(index.values) - 1 and index.count(r) > 1:
                    return False, ("repeated line crossed", (e, k))
        return True, None

    def extended(self) -> "TMesh2D":
        """The extended (Bezier) mesh: all extension segments added as lines."""
        segs = []
        for e in self.compute_extensions():
            lo, hi = e.full_range
            segs.append((e.orientation, e.line_index, lo, hi))
        return self.with_segments(segs)

    # -- anchors and local knot vectors ------------------------------------------

    @cached_property
    def line_index(self) -> tuple:
        """The x and y :class:`_LineIndex` of this mesh, built once: horizontal
        rays cross the vertical edges, vertical rays the horizontal ones."""
        vx, vy = self.line_values
        return _LineIndex("x", self.xs, vx, self.VE), _LineIndex("y", self.ys, vy, self.HE.T)

    @cached_property
    def line_values(self) -> tuple:
        """Per axis, the distinct line values in increasing order; a line's
        rank is the position of its value here."""
        return tuple(sorted(set(t)) for t in (self.xs, self.ys))

    @cached_property
    def _anchor_boxes(self) -> np.ndarray:
        """Index box (i1, j1, i2, j2) of every anchor entity, by degree
        parity: vertices, edges or faces, as boxes of zero extent where the
        entity has none; row-major (x fastest), an (n, 4) int array."""
        ox, oy = (p % 2 == 1 for p in self.degrees)
        if ox and oy:
            j, i = np.nonzero(self._vertex.T)
            return np.c_[i, j, i, j]
        if oy:
            j, a, b = _runs(self.HE.T, self._vertex.T)
            return np.c_[a, j, b, j]
        if ox:
            i, a, b = _runs(self.VE, self._vertex)
            return np.c_[i, a, i, b][np.lexsort((i, a))]
        return np.array(self._faces).reshape(-1, 4)

    def anchor_entities(self):
        """Entity per anchor, by degree parity: vertices, edge midpoints or
        face barycentres; ordered row-major (x fastest)."""
        ox, oy = (p % 2 == 1 for p in self.degrees)
        kind = "vertex" if ox and oy else "hedge" if oy else "vedge" if ox else "face"
        return [(kind, tuple(b[k] for k in _ENTITY_OF_BOX[kind])) for b in self._anchor_boxes.tolist()]

    @cached_property
    def anchor_locators(self) -> tuple:
        """Per axis, the locators of all anchors as two int arrays (kind, m),
        kind 0 the line m and kind 1 the span from line m.  Raises
        :class:`TMeshError` where an anchor coordinate has no locator."""
        B = self._anchor_boxes
        return tuple(index.locate(B[:, d], B[:, d + 2]) for d, index in enumerate(self.line_index))

    @cached_property
    def anchor_ranks(self) -> tuple:
        """Per axis, the local knot vectors of all anchors as an (n, p + 2)
        int array of line ranks, traced along the rays of the perpendicular
        locators; row a is ``Anchor2D.key[d]`` of anchor a."""
        (kx, mx), (ky, my) = self.anchor_locators
        ix, iy = self.line_index
        p1, p2 = self.degrees
        return ix.trace(kx, mx, (ky, my), p1), iy.trace(ky, my, (kx, mx), p2)

    def anchors(self):
        """All anchors with exact positions and local knot vectors, built
        from the rank arrays on demand."""
        per_axis = []  # positions, locators, local knot vectors and rank keys
        for d, (index, (kind, m), ranks) in enumerate(zip(self.line_index, self.anchor_locators, self.anchor_ranks)):
            lo, hi = self._anchor_boxes[:, d].tolist(), self._anchor_boxes[:, d + 2].tolist()
            pos = [
                index.table[a] if index.rank[a] == index.rank[b] else index.midpoint(index.rank[a], index.rank[b])[1]
                for a, b in zip(lo, hi)
            ]
            locs = [(("line", "span")[k], i) for k, i in zip(kind.tolist(), m.tolist())]
            keys = [tuple(r) for r in ranks.tolist()]
            per_axis.append((pos, locs, [tuple(index.values[r] for r in key) for key in keys], keys))
        (px, lx, kx, rx), (py, ly, ky, ry) = per_axis
        return [
            Anchor2D(idx, (px[idx], py[idx]), (lx[idx], ly[idx]), kx[idx], ky[idx], (rx[idx], ry[idx]))
            for idx in range(len(px))
        ]


class _LineIndex:
    """Exact integer index of one axis of a rendered T-mesh.

    ``rank[k]`` is the position of line k's value among the distinct line
    values ``values``, so knot vectors compare and hash as int tuples while
    the knots stay Fractions; lines of rank r are ``bounds[r]`` up to
    ``bounds[r + 1]`` (the table is sorted).  ``hits[kind][m]`` lists,
    ascending, the lines of this axis crossed by the ray at the perpendicular
    locator (kind, m); ``crossed[kind]`` is the same as a boolean grid
    (line, m).  ``edges[k, m]`` is the edge on line k across the m-th
    perpendicular span.
    """

    def __init__(self, axis, table, values, edges):
        self.axis = axis
        self.table = table
        self.values = values
        self.rank_of = {v: r for r, v in enumerate(self.values)}
        self.rank = [self.rank_of[v] for v in table]
        self.bounds = [k for k in range(len(table)) if k == 0 or table[k] != table[k - 1]]
        self.bounds.append(len(table))
        line = np.zeros((edges.shape[0], edges.shape[1] + 1), dtype=bool)
        line[:, :-1] |= edges
        line[:, 1:] |= edges
        self.crossed = {"span": edges, "line": line}
        self.hits = {kind: [np.flatnonzero(c).tolist() for c in grid.T] for kind, grid in self.crossed.items()}
        self._midpoints = {}  # (rlo, rhi) -> midpoint(rlo, rhi)

    def count(self, r) -> int:
        """Multiplicity of the lines of rank r."""
        return self.bounds[r + 1] - self.bounds[r]

    def locate(self, lo, hi):
        """Locators (kind, m) of anchor coordinates on lines [lo, hi], int
        arrays: the line itself (kind 0) when lo == hi, the zero-width span
        (kind 1) between two copies of one line, else the even-parity
        midpoint, computed once per distinct pair of ranks."""
        rank = np.array(self.rank)
        rlo, rhi = rank[lo], rank[hi]
        kind, m = (lo != hi).astype(int), lo.copy()
        if np.any((rlo == rhi) & (hi > lo + 1)):
            raise TMeshError("ambiguous zero-width anchor extent")
        mid = np.flatnonzero(rlo != rhi)
        if mid.size:
            pairs, inv = np.unique(rlo[mid] * len(self.values) + rhi[mid], return_inverse=True)
            locs = [self.midpoint(*divmod(pair, len(self.values)))[0] for pair in pairs.tolist()]
            kind[mid] = np.array([k == "span" for k, _ in locs], dtype=int)[inv]
            m[mid] = np.array([k for _, k in locs])[inv]
        return kind, m

    def midpoint(self, rlo, rhi):
        """Locator and value of the midpoint of two distinct line values,
        computed once per pair of ranks."""
        key = (rlo, rhi)
        if key not in self._midpoints:
            self._midpoints[key] = self._midpoint(rlo, rhi)
        return self._midpoints[key]

    def _midpoint(self, rlo, rhi):
        mid = (self.values[rlo] + self.values[rhi]) / 2
        r = self.rank_of.get(mid)
        if r is None:  # values[rlo] < mid < values[rhi]
            return ("span", self.bounds[bisect.bisect_right(self.values, mid, rlo + 1, rhi)] - 1), mid
        if self.count(r) > 1:
            raise TMeshError(f"anchor midpoint lies on the repeated {self.axis} line {mid}")
        return ("line", self.bounds[r]), mid

    def trace(self, kind, m, perp, degree):
        """Local knot vectors of the anchors at the locators (kind, m) along
        this axis, as an (n, degree + 2) int array of line ranks, padded
        with the first and last rank (the boundary values 0 and 1).

        ``perp`` = (kind, m) arrays of the perpendicular locators fix the
        rays.  The lines crossed by all rays, each ray padded with
        ``need`` copies of the lines -1 and n on either side, form one
        array sorted by (ray, line), so a single search finds every
        anchor's neighbours: the ``need`` crossed lines below it and the
        ``need`` above, and, at odd degree, the anchor's own line between.
        A 'line' anchor of even degree sits on a line the ray misses."""
        odd = degree % 2 == 1
        if odd and np.any(kind != 0):
            raise TMeshError("odd-degree anchor must sit on a line")
        need = (degree + 1) // 2 if odd else degree // 2 + 1
        n = len(self.table)
        crossed = np.hstack([self.crossed["line"], self.crossed["span"]]).T  # (ray, line)
        pad = np.ones((crossed.shape[0], need), dtype=bool)
        rays, cols = np.nonzero(np.hstack([pad, crossed, pad]))
        lines = np.r_[np.full(need, -1), np.arange(n), np.full(need, n)][cols]
        keys = rays * (n + 2) + lines + 1
        base = np.where(perp[0] == 0, perp[1], self.crossed["line"].shape[1] + perp[1]) * (n + 2) + 1
        below = np.searchsorted(keys, base + m - 1 + kind, side="right")  # after the last line <= m - 1 (span: <= m)
        above = np.searchsorted(keys, base + m + 1, side="left")  # the first line >= m + 1
        parts = [lines[below[:, None] + np.arange(-need, 0)], lines[above[:, None] + np.arange(need)]]
        if odd:
            parts.insert(1, m[:, None])
        rank = np.r_[0, self.rank, len(self.values) - 1]  # line -1 and n are the padding
        return rank[np.hstack(parts) + 1]

    def between(self, locator, rlo, rhi) -> list:
        """Ranks of the lines crossed by the ray at ``locator`` whose values
        lie strictly between ranks rlo and rhi, with multiplicity."""
        hits = self.hits[locator[0]][locator[1]]
        i = bisect.bisect_left(hits, self.bounds[rlo + 1])
        j = bisect.bisect_left(hits, self.bounds[rhi])
        return [self.rank[k] for k in hits[i:j]]


# Positions in an anchor's index box (i1, j1, i2, j2) of its entity: a
# vertex (i, j), an edge (i1, i2, j) or (i, j1, j2), a face the box itself.
_ENTITY_OF_BOX = {"vertex": (0, 1), "hedge": (0, 2, 1), "vedge": (0, 1, 3), "face": (0, 1, 2, 3)}


def _runs(E, cut=False):
    """Maximal runs of edges along the lines of one axis, ``E[k, m]`` being
    the edge of line k from point m to m + 1, cut at the points where
    ``cut[k, m]`` is set: arrays (line, start point, end point), by line."""
    pad = np.zeros((E.shape[0], 1), dtype=bool)
    before, after = np.hstack([pad, E]), np.hstack([E, pad])  # the edges at each point
    lines, starts = np.nonzero(after & (~before | cut))
    ends = np.nonzero(before & (~after | cut))[1]
    return lines, starts, ends


def _render_edges(raw, lines, spans):
    """Rendered grid of one edge family from its raw grid ``raw[line, span]``,
    given the rendered index ranges of the raw lines of the family and of
    the raw lines across it.  Every copy of a line gets its edges; a line
    passes through a repeated band across it when it has edges on both
    sides, or when the band is the outer boundary."""
    ends = np.array([d for _, d in spans])
    below, above = np.zeros((2, raw.shape[0], len(spans)), dtype=bool)
    below[:, 1:], above[:, :-1] = raw, raw
    outer = np.isin(np.arange(len(spans)), (0, len(spans) - 1))
    band = (below & above) | (outer & (below | above))
    # rendered span s lies in the band of raw line m, or is the gap after it
    s = np.arange(ends[-1])
    m = np.searchsorted(ends, s)
    E = np.where(ends[m] == s, above[:, m], band[:, m])
    return np.repeat(E, [b - a + 1 for a, b in lines], axis=0)


def validate_tmesh(raw: RawTMesh, degrees) -> TMesh2D:
    """Validate the raw tiling and render it for the given degrees; every
    anchor must have a locator, so no anchor midpoint lies on a repeated
    line."""
    if min(degrees) < 1:
        raise ValueError("degree must be at least 1")
    mesh = TMesh2D.from_raw(raw, degrees)
    mesh.anchor_locators
    return mesh


# -- T-spline spaces -------------------------------------------------------------


def _row_codes(rows, base) -> np.ndarray:
    """Int codes of the rows of an (n, k) int array with entries in [0,
    base), equal exactly for equal rows: the rows read as numbers in radix
    ``base``, renumbered densely before a digit could overflow int64."""
    code = np.zeros(len(rows), dtype=np.int64)
    for digit in rows.T:
        if code.size and code.max() >= (2**62 - base) // base:
            code = np.unique(code, return_inverse=True)[1]
        code = code * base + digit
    return code


class TsplineSpace:
    """Span of the T-spline functions of one rendered mesh, with B/D scaling.
    Its float tables are derived on first use: each distinct 1D factor once
    per rule, and all element tables as one gathered product of factors."""

    def __init__(self, mesh: TMesh2D, scalings=("B", "B")):
        self.mesh = mesh
        self.degrees = mesh.degrees
        self.scalings = tuple(scalings)
        self.ranks = mesh.anchor_ranks  # per direction, the local knot vectors as line ranks
        if np.unique(self._codes(*self.ranks)).size < self.dim:
            raise TMeshError("two anchors share identical local knot vectors")

    @property
    def dim(self) -> int:
        return len(self.ranks[0])

    @cached_property
    def anchors(self) -> list:
        """The :class:`Anchor2D` objects of the mesh, built on first use."""
        return self.mesh.anchors()

    def _codes(self, keys1, keys2) -> np.ndarray:
        """Radix codes of rank keys, equal exactly for equal keys."""
        return _row_codes(np.hstack([keys1, keys2]), max(map(len, self.mesh.line_values)))

    def key_index(self, keys1, keys2) -> np.ndarray:
        """Index of the anchor whose rank key is (keys1[i], keys2[i]), or -1
        where there is none, for (m, p1 + 2) and (m, p2 + 2) int arrays."""
        n = self.dim
        codes = self._codes(*(np.vstack([own, keys]) for own, keys in zip(self.ranks, (keys1, keys2))))
        own, wanted = codes[:n], codes[n:]
        order = np.argsort(own)
        idx = order[np.searchsorted(own[order], wanted).clip(max=n - 1)]
        return np.where(own[idx] == wanted, idx, -1)

    # -- tabulation: float data derived on first use, never in __init__ ----------

    @cached_property
    def knot_rows(self) -> tuple:
        """Per direction, the local knot vectors of all anchors as
        :class:`KnotRows`, converted from the rank arrays once per space.
        Column 0 and -1 of ``knots`` are the support box."""
        return tuple(KnotRows.from_ranks(r, v) for r, v in zip(self.ranks, self.mesh.line_values))

    @cached_property
    def elements(self) -> np.ndarray:
        """Float boxes (x1, y1, x2, y2) of the positive-area faces of the
        extended mesh, the integration elements, as an (nel, 4) array."""
        ext = self.mesh.extended()
        i1, j1, i2, j2 = np.array(ext.positive_faces(), dtype=int).reshape(-1, 4).T
        xs, ys = np.array(ext.xs, dtype=float), np.array(ext.ys, dtype=float)
        return np.stack([xs[i1], ys[j1], xs[i2], ys[j2]], axis=1)

    @cached_property
    def element_anchors(self) -> tuple:
        """Element -> anchor map of ``elements``: (columns, (act, cx, cy)).

        Per direction, ``columns`` holds the distinct element spans (ns, 2)
        and per distinct 1D factor its span and an anchor: the span and the
        anchor's rank row fix a factor, so equal rows share it.  ``act``,
        ``cx`` and ``cy`` are (nel, nmax) int arrays padded with -1: per
        element, the ascending anchors overlapping it and their x and y
        factor numbers.
        """
        boxes, columns, gathered = self.elements, [], []
        for d, (rows, ranks) in enumerate(zip(self.knot_rows, self.ranks)):
            ivs, s = np.unique(boxes[:, [d, d + 2]], axis=0, return_inverse=True)
            span, anchor = np.nonzero((rows.knots[:, 0] < ivs[:, 1:]) & (rows.knots[:, -1] > ivs[:, :1]))
            _, first, row = np.unique(ranks, axis=0, return_index=True, return_inverse=True)
            key, col = np.unique(span * first.size + row.ravel()[anchor], return_inverse=True)
            columns.append((ivs, key // first.size, first[key % first.size]))
            gathered.append(sp.csr_matrix((col + 1, (span, anchor)), shape=(len(ivs), self.dim))[s.ravel()])
        # per element, the factor numbers + 1 of the anchors over its spans: over both reads cx + 1 + base (cy + 1)
        base = len(columns[0][1]) + 1
        both = (gathered[0] + base * gathered[1]).tocoo()
        keep = (both.data % base > 0) & (both.data > base)
        e, code = both.row[keep], both.data[keep]
        nact = np.bincount(e, minlength=len(boxes))
        out = np.full((3, len(boxes), nact.max(initial=0)), -1)
        out[:, e, np.arange(e.size) - (np.cumsum(nact) - nact)[e]] = both.col[keep], code % base - 1, code // base - 1
        return columns, tuple(out)

    def factor_tables(self, order: int) -> tuple:
        """Per direction, (values, derivatives) of the distinct 1D factors on
        the ``order``-point Gauss rule of their span, (nfactors + 1, order),
        from one batched evaluation; the last row, read by the padding -1, is zero."""
        from .assembly import gauss_points_1d

        cache = self.__dict__.setdefault("_factor_tables", {})
        if order not in cache:
            tabs = []
            for d, (ivs, span, anchor) in enumerate(self.element_anchors[0]):
                x = gauss_points_1d(ivs[:, :1], ivs[:, 1:], order)[0][span].T
                args = (self.knot_rows[d][anchor], self.degrees[d], self.scalings[d], x)
                tabs.append(tuple(np.vstack([scaled_eval(*args, k).T, np.zeros(order)]) for k in (0, 1)))
            cache[order] = tuple(tabs)
        return cache[order]

    def element_tables(self, order: int, *tables: str) -> tuple:
        """Active anchors (nel, nmax) of the elements, then per name in
        ``tables`` ("value", "dx" or "dy") their values or derivatives on
        each element's Gauss grid (x index slowest), (nel, nmax, order**2),
        one gathered outer product of factor rows.  Padding rows are zero."""
        act, cx, cy = self.element_anchors[1]
        (vx, gx), (vy, gy) = self.factor_tables(order)
        factors = {"value": (vx, vy), "dx": (gx, vy), "dy": (vx, gy)}

        def outer(fx, fy):
            return (fx[cx][..., :, None] * fy[cy][..., None, :]).reshape(*act.shape, -1)

        return (act, *(outer(*factors[t]) for t in tables))

    def basis(self, points) -> np.ndarray:
        """Values of all anchors at arbitrary points, shape (npts, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        (rx, ry), (p1, p2), (s1, s2) = self.knot_rows, self.degrees, self.scalings
        return scaled_eval(rx, p1, s1, pts[:, 0]) * scaled_eval(ry, p2, s2, pts[:, 1])

    def eval(self, coeffs, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("evaluation point outside the unit square")
        return self.basis(pts) @ np.asarray(coeffs, dtype=float)

    def gram_matrix(self) -> np.ndarray:
        """Mass matrix on the extended mesh of the underlying T-mesh."""
        from .assembly import Scalar2D, assemble_matrix_2d
        from .geometry import affine_map

        return assemble_matrix_2d(Scalar2D(self), affine_map(1.0, ndim=2), "mass").toarray()
