"""Two-dimensional T-meshes: structure, extensions, analysis-suitability,
anchors and local-knot-vector inference, extended mesh, T-spline evaluation.

A raw T-mesh is a rectangular tiling of the unit square given by distinct
breakpoint tables and faces as index rectangles.  Rendering it for degrees
(p1, p2) expands boundary lines to multiplicity floor(p/2)+1 and interior
lines to their stated multiplicities; all structure queries (census,
T-junctions, extensions, anchor tracing) run on the rendered index grid, so
segment comparisons are exact integer index comparisons.

Conventions fixed here:

* lines terminating at the outer boundary pass through the whole repeated
  boundary band (as in the tensor-product rendering), so boundary line
  repetitions count as crossed lines for extensions;
* lines terminating at an interior repeated line stop at the nearest copy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bspline import KnotRows, as_fraction, scaled_eval

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


@dataclass(frozen=True)
class RawTMesh:
    """Tiling-level description: distinct breakpoints, faces as index boxes.

    ``faces`` entries are (i1, j1, i2, j2) with i referring to x-breakpoints.
    ``multiplicities`` optionally maps ("x"|"y", line index) to an interior
    line multiplicity (constant along the line).
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

    def edge_grids(self):
        """Raw elementary edge presence derived from the face list."""
        nx, ny = len(self.breakpoints_x), len(self.breakpoints_y)
        VE = np.zeros((nx, ny - 1), dtype=bool)
        HE = np.zeros((nx - 1, ny), dtype=bool)
        cover = np.zeros((nx - 1, ny - 1), dtype=int)
        for (i1, j1, i2, j2) in self.faces:
            if not (0 <= i1 < i2 < nx and 0 <= j1 < j2 < ny):
                raise TMeshError(f"face {(i1, j1, i2, j2)} has out-of-range or empty extent")
            VE[i1, j1:j2] = True
            VE[i2, j1:j2] = True
            HE[i1:i2, j1] = True
            HE[i1:i2, j2] = True
            cover[i1:i2, j1:j2] += 1
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
        self._faces = None
        self._validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_raw(cls, raw: RawTMesh, degrees) -> "TMesh2D":
        p1, p2 = degrees
        rawVE, rawHE = raw.edge_grids()
        xs, xr = _render_lines(raw.breakpoints_x, raw.multiplicities, "x", p1)
        ys, yr = _render_lines(raw.breakpoints_y, raw.multiplicities, "y", p2)
        Nx, Ny = len(xs), len(ys)
        VE = np.zeros((Nx, Ny - 1), dtype=bool)
        HE = np.zeros((Nx - 1, Ny), dtype=bool)
        nrx, nry = len(raw.breakpoints_x), len(raw.breakpoints_y)

        for i in range(nrx):
            for j in range(nry - 1):
                if not rawVE[i, j]:
                    continue
                for ii in range(xr[i][0], xr[i][1] + 1):
                    VE[ii, yr[j][1] : yr[j + 1][0]] = True
        for i in range(nrx - 1):
            for j in range(nry):
                if not rawHE[i, j]:
                    continue
                for jj in range(yr[j][0], yr[j][1] + 1):
                    HE[xr[i][1] : xr[i + 1][0], jj] = True
        # band crossings: a line passes through a repeated band when it has
        # edges on both sides, or when the band is the outer boundary
        for i in range(nrx):
            for j in range(nry):
                below = j > 0 and rawVE[i, j - 1]
                above = j < nry - 1 and rawVE[i, j]
                crosses = (below and above) or (j in (0, nry - 1) and (below or above))
                if crosses:
                    for ii in range(xr[i][0], xr[i][1] + 1):
                        VE[ii, yr[j][0] : yr[j][1]] = True
                left = i > 0 and rawHE[i - 1, j]
                right = i < nrx - 1 and rawHE[i, j]
                crosses = (left and right) or (i in (0, nrx - 1) and (left or right))
                if crosses:
                    for jj in range(yr[j][0], yr[j][1] + 1):
                        HE[xr[i][0] : xr[i][1], jj] = True
        return cls(xs, ys, VE, HE, degrees)

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

    def _germs(self, i, j):
        L = bool(self.HE[i - 1, j]) if i > 0 else False
        R = bool(self.HE[i, j]) if i < self.nx - 1 else False
        D = bool(self.VE[i, j - 1]) if j > 0 else False
        U = bool(self.VE[i, j]) if j < self.ny - 1 else False
        return L, R, D, U

    def is_vertex(self, i, j) -> bool:
        L, R, D, U = self._germs(i, j)
        nh, nv = L + R, D + U
        if nh + nv == 0:
            return False
        return not ((nh == 2 and nv == 0) or (nv == 2 and nh == 0))

    def _validate(self):
        if not (self.HE[:, 0].all() and self.HE[:, -1].all() and self.VE[0, :].all() and self.VE[-1, :].all()):
            raise TMeshError("outer boundary is not fully meshed")
        for i in range(self.nx):
            for j in range(self.ny):
                L, R, D, U = self._germs(i, j)
                if L + R + D + U == 1:
                    raise TMeshError(f"dangling edge at grid point ({i}, {j})")
        self._faces = self._extract_faces()

    def _extract_faces(self):
        nxc, nyc = self.nx - 1, self.ny - 1
        parent = list(range(nxc * nyc))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        cell = lambda i, j: i + nxc * j
        for i in range(1, nxc):
            for j in range(nyc):
                if not self.VE[i, j]:
                    union(cell(i - 1, j), cell(i, j))
        for i in range(nxc):
            for j in range(1, nyc):
                if not self.HE[i, j]:
                    union(cell(i, j - 1), cell(i, j))
        groups = {}
        for i in range(nxc):
            for j in range(nyc):
                groups.setdefault(find(cell(i, j)), []).append((i, j))
        faces = []
        for cells in groups.values():
            i1 = min(c[0] for c in cells)
            i2 = max(c[0] for c in cells) + 1
            j1 = min(c[1] for c in cells)
            j2 = max(c[1] for c in cells) + 1
            if len(cells) != (i2 - i1) * (j2 - j1):
                raise TMeshError(f"non-rectangular face with cells {sorted(cells)[:4]}...")
            faces.append((i1, j1, i2, j2))
        faces.sort(key=lambda f: (f[1], f[0]))
        return faces

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
        return [
            (i, j) for j in range(self.ny) for i in range(self.nx) if self.is_vertex(i, j)
        ]

    def horizontal_edges(self):
        """Maximal horizontal edges as (i_start, i_end, j), row-major order."""
        out = []
        for j in range(self.ny):
            i = 0
            while i < self.nx - 1:
                if not self.HE[i, j]:
                    i += 1
                    continue
                start = i
                while i < self.nx - 1 and self.HE[i, j] and not (i > start and self.is_vertex(i, j)):
                    i += 1
                out.append((start, i, j))
        out.sort(key=lambda e: (e[2], e[0]))
        return out

    def vertical_edges(self):
        """Maximal vertical edges as (i, j_start, j_end), ordered by (j, i)."""
        out = []
        for i in range(self.nx):
            j = 0
            while j < self.ny - 1:
                if not self.VE[i, j]:
                    j += 1
                    continue
                start = j
                while j < self.ny - 1 and self.VE[i, j] and not (j > start and self.is_vertex(i, j)):
                    j += 1
                out.append((i, start, j))
        out.sort(key=lambda e: (e[1], e[0]))
        return out

    def t_junctions(self):
        """Interior vertices with exactly three edge germs."""
        out = []
        for j in range(self.ny):
            if not (0 < self.ys[j] < 1):
                continue
            for i in range(self.nx):
                if not (0 < self.xs[i] < 1):
                    continue
                L, R, D, U = self._germs(i, j)
                if L + R + D + U != 3:
                    continue
                if not L or not R:
                    out.append((i, j, "h", +1 if not R else -1))
                else:
                    out.append((i, j, "v", +1 if not U else -1))
        return out

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
        for j in range(self.ny):
            runs = _runs(self.HE[:, j])
            for a, b in runs:
                if self.xs[b] > self.xs[a]:
                    segs.add(("h", self.ys[j], self.xs[a], self.xs[b]))
        for i in range(self.nx):
            runs = _runs(self.VE[i, :])
            for a, b in runs:
                if self.ys[b] > self.ys[a]:
                    segs.add(("v", self.xs[i], self.ys[a], self.ys[b]))
        return segs

    # -- extensions and analysis-suitability -----------------------------------

    def _vline_hits(self, i, ylocator) -> bool:
        kind, k = ylocator
        if kind == "line":
            below = self.VE[i, k - 1] if k > 0 else False
            above = self.VE[i, k] if k < self.ny - 1 else False
            return bool(below or above)
        return bool(self.VE[i, k])

    def _hline_hits(self, j, xlocator) -> bool:
        kind, k = xlocator
        if kind == "line":
            left = self.HE[k - 1, j] if k > 0 else False
            right = self.HE[k, j] if k < self.nx - 1 else False
            return bool(left or right)
        return bool(self.HE[k, j])

    def _walk(self, orientation, line, start, step, bays):
        """March from a T-junction, returning the index after crossing
        ``bays`` lines (clipped at the outer boundary)."""
        hits = 0
        limit = self.nx if orientation == "h" else self.ny
        k = start + step
        last = start
        while 0 <= k < limit and hits < bays:
            hit = (
                self._vline_hits(k, ("line", line))
                if orientation == "h"
                else self._hline_hits(k, ("line", line))
            )
            if hit:
                hits += 1
                last = k
            k += step
        return last

    def compute_extensions(self):
        """Per T-junction, the face- and edge-extension segments.

        Face extensions run ceil(p/2) bays in the direction of the missing
        edge, edge extensions floor(p/2) bays the opposite way.
        """
        p1, p2 = self.degrees
        out = []
        for (i, j, orientation, sense) in self.t_junctions():
            p = p1 if orientation == "h" else p2
            fb = (p + 1) // 2
            eb = p // 2
            if orientation == "h":
                start, line = i, j
            else:
                start, line = j, i
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
        for kind, table in (("h", self.xs), ("v", self.ys)):
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
            lines = self.xs if e.orientation == "h" else self.ys
            locator = ("line", e.line_index)
            lo, hi = e.full_range
            for k in range(lo, hi + 1):
                hit = self._vline_hits(k, locator) if e.orientation == "h" else self._hline_hits(k, locator)
                if not hit:
                    continue
                v = lines[k]
                if 0 < v < 1 and lines.count(v) > 1:
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

    def _locator(self, axis, lo, hi):
        """Locator for an even-parity anchor coordinate spanning [lo, hi]."""
        table = self.xs if axis == 0 else self.ys
        if table[lo] == table[hi]:
            if hi != lo + 1:
                raise TMeshError("ambiguous zero-width anchor extent")
            return ("span", lo), table[lo]
        mid = (table[lo] + table[hi]) / 2
        matches = [k for k in range(len(table)) if table[k] == mid]
        if len(matches) == 1:
            return ("line", matches[0]), mid
        if len(matches) > 1:
            raise TMeshError("anchor midpoint lies on a repeated line")
        m = bisect.bisect_right(table, mid) - 1
        return ("span", m), mid

    def _trace(self, axis, locator, other_locator, degree):
        """Local knot vector in one direction by ray tracing.

        ``axis`` 0 traces horizontally collecting x-values; ``other_locator``
        fixes the perpendicular coordinate.  Pads with 0/1 at the boundary.
        """
        table = self.xs if axis == 0 else self.ys
        hits = (lambda k: self._vline_hits(k, other_locator)) if axis == 0 else (
            lambda k: self._hline_hits(k, other_locator)
        )
        n = len(table)
        kind, k0 = locator
        if degree % 2 == 1:
            if kind != "line":
                raise TMeshError("odd-degree anchor must sit on a line")
            need = (degree + 1) // 2
            center = [table[k0]]
            left_from, right_from = k0 - 1, k0 + 1
        else:
            need = (degree + 2) // 2
            center = []
            if kind == "span":
                left_from, right_from = k0, k0 + 1
            else:
                # anchor value coincides with a line that misses the ray
                left_from, right_from = k0 - 1, k0 + 1
        left = []
        k = left_from
        while k >= 0 and len(left) < need:
            if hits(k):
                left.append(table[k])
            k -= 1
        while len(left) < need:
            left.append(Fraction(0))
        right = []
        k = right_from
        while k < n and len(right) < need:
            if hits(k):
                right.append(table[k])
            k += 1
        while len(right) < need:
            right.append(Fraction(1))
        return tuple(reversed(left)) + tuple(center) + tuple(right)

    def anchor_entities(self):
        """Entity per anchor, by degree parity: vertices, edge midpoints or
        face barycentres; ordered row-major (x fastest)."""
        p1, p2 = self.degrees
        ox, oy = p1 % 2 == 1, p2 % 2 == 1
        if ox and oy:
            return [("vertex", v) for v in self.vertices()]
        if not ox and oy:
            return [("hedge", e) for e in self.horizontal_edges()]
        if ox and not oy:
            return [("vedge", e) for e in self.vertical_edges()]
        return [("face", f) for f in self._faces]

    def anchors(self):
        """All anchors with exact positions and traced local knot vectors."""
        p1, p2 = self.degrees
        out = []
        for idx, (kind, ent) in enumerate(self.anchor_entities()):
            if kind == "vertex":
                i, j = ent
                locx, posx = ("line", i), self.xs[i]
                locy, posy = ("line", j), self.ys[j]
            elif kind == "hedge":
                i1, i2, j = ent
                locx, posx = self._locator(0, i1, i2)
                locy, posy = ("line", j), self.ys[j]
            elif kind == "vedge":
                i, j1, j2 = ent
                locx, posx = ("line", i), self.xs[i]
                locy, posy = self._locator(1, j1, j2)
            else:
                i1, j1, i2, j2 = ent
                locx, posx = self._locator(0, i1, i2)
                locy, posy = self._locator(1, j1, j2)
            lkv1 = self._trace(0, locx, locy, p1)
            lkv2 = self._trace(1, locy, locx, p2)
            out.append(Anchor2D(idx, (posx, posy), (locx, locy), lkv1, lkv2))
        return out


def _runs(mask):
    out = []
    start = None
    for k, v in enumerate(mask):
        if v and start is None:
            start = k
        if not v and start is not None:
            out.append((start, k))
            start = None
    if start is not None:
        out.append((start, len(mask)))
    return out


def _render_lines(breakpoints, multiplicities, axis, degree):
    """Rendered value table and raw-line index ranges for one direction."""
    b = degree // 2 + 1
    values = []
    ranges = []
    last = len(breakpoints) - 1
    for i, bp in enumerate(breakpoints):
        m = b if i in (0, last) else int(multiplicities.get((axis, i), 1))
        start = len(values)
        values.extend([bp] * m)
        ranges.append((start, len(values) - 1))
    return values, ranges


def validate_tmesh(raw: RawTMesh, degrees) -> TMesh2D:
    """Validate the raw tiling and render it for the given degrees."""
    return TMesh2D.from_raw(raw, degrees)


# -- T-spline spaces -------------------------------------------------------------


class TsplineSpace:
    """Span of the T-spline functions of one rendered mesh, with B/D scaling."""

    def __init__(self, mesh: TMesh2D, scalings=("B", "B")):
        self.mesh = mesh
        self.degrees = mesh.degrees
        self.scalings = tuple(scalings)
        self.anchors = mesh.anchors()
        self.key_index = {}
        for a in self.anchors:
            key = (a.lkv1, a.lkv2)
            if key in self.key_index:
                raise TMeshError("two anchors share identical local knot vectors")
            self.key_index[key] = a.index

    @property
    def dim(self) -> int:
        return len(self.anchors)

    # -- tabulation: float data derived on first use, never in __init__ ----------

    @cached_property
    def knot_rows(self) -> tuple:
        """Per direction, the local knot vectors of all anchors as
        :class:`KnotRows`; the exact knots are converted to floats here,
        once per space.  Column 0 and -1 of ``knots`` are the support box."""
        return tuple(
            KnotRows.from_exact([(a.lkv1, a.lkv2)[d] for a in self.anchors]) for d in (0, 1)
        )

    @cached_property
    def elements(self) -> list:
        """Float boxes (x1, y1, x2, y2) of the positive-area faces of the
        extended mesh, the integration elements."""
        ext = self.mesh.extended()
        return [
            (float(ext.xs[f[0]]), float(ext.ys[f[1]]), float(ext.xs[f[2]]), float(ext.ys[f[3]]))
            for f in ext.positive_faces()
        ]

    @cached_property
    def element_anchors(self) -> tuple:
        """Element -> anchor map of ``elements``.

        Returns (pairs, active).  Per direction, ``pairs`` holds the
        distinct element spans and the (span, anchor) pairs whose supports
        overlap, as two index arrays sorted by span.  Per element,
        ``active`` holds the ascending indices of the anchors overlapping it
        and their x and y pair numbers.
        """
        boxes = self.elements
        pairs, hits, numbers = [], [], []
        for d, rows in enumerate(self.knot_rows):
            ivs = sorted({(b[d], b[d + 2]) for b in boxes})
            lo, hi = rows.knots[:, 0], rows.knots[:, -1]
            hit = np.array([(lo < b) & (hi > a) for a, b in ivs])
            span, anchor = np.nonzero(hit)
            number = np.zeros(hit.shape, dtype=int)
            number[span, anchor] = np.arange(span.size)
            pos = {iv: k for k, iv in enumerate(ivs)}
            pairs.append((ivs, span, anchor))
            hits.append((hit, [pos[(b[d], b[d + 2])] for b in boxes]))
            numbers.append(number)
        (hx, sx), (hy, sy) = hits
        active = []
        for i, j in zip(sx, sy):
            act = np.flatnonzero(hx[i] & hy[j])
            active.append((act, numbers[0][i, act], numbers[1][j, act]))
        return pairs, active

    def factor_tables(self, order: int) -> tuple:
        """Per direction, (values, derivatives) of the 1D factors at the
        ``order``-point Gauss rule of every distinct element span, one column
        per (span, anchor) pair of ``element_anchors``: shape (order, npairs),
        from one batched evaluation per direction."""
        from .assembly import gauss_points_1d

        cache = self.__dict__.setdefault("_factor_tables", {})
        if order not in cache:
            tabs = []
            for d, (ivs, span, anchor) in enumerate(self.element_anchors[0]):
                x = np.array([gauss_points_1d(a, b, order)[0] for a, b in ivs])[span].T
                args = (self.knot_rows[d][anchor], self.degrees[d], self.scalings[d], x)
                tabs.append((scaled_eval(*args), scaled_eval(*args, 1)))
            cache[order] = tuple(tabs)
        return cache[order]

    def element_table(self, e: int, order: int, derivs: bool = True) -> tuple:
        """Active anchors of element ``e`` and their values on its tensor
        Gauss grid (x index slowest), shape (order**2, nact), as outer
        products of factor-table columns; with ``derivs`` also the x and y
        derivatives, else None for both."""
        act, cx, cy = self.element_anchors[1][e]
        (vx, gx), (vy, gy) = self.factor_tables(order)
        fx, fy = vx[:, cx], vy[:, cy]

        def outer(a, b):  # C order: BLAS sums these tables in a fixed order
            return np.multiply(a[:, None, :], b[None, :, :], order="C").reshape(-1, len(act))

        if not derivs:
            return act, outer(fx, fy), None, None
        return act, outer(fx, fy), outer(gx[:, cx], fy), outer(fx, gy[:, cy])

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

    def gram_matrix(self, order=None) -> np.ndarray:
        """Mass matrix on the extended mesh of the underlying T-mesh."""
        from .assembly import Scalar2D, assemble_matrix_2d
        from .geometry import affine_map

        return assemble_matrix_2d(Scalar2D(self), affine_map(1.0, ndim=2), "mass", order).toarray()
