"""Benchmark mesh and geometry builders used by the fixtures, tests and CLI.

The square-domain eigenproblem family: the coarsest mesh has 8 square
elements in the left half and 4 taller rectangles in the right half, with
T-junctions on the line x = 1/2; each refinement splits every element in 4.

The L-section family: per patch an n x n start mesh, dyadic refinement of a
corner block per level; the terminating fine lines are prolonged by their
face-extension length so the mesh stays analysis-suitable (for degree p the
added prolongations are the ceil(p/2)-bay face extensions).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .bspline import KnotVector
from .geometry import GeometryMap, affine_map
from .tmesh import RawTMesh, TMesh2D

F = Fraction

__all__ = [
    "square_raw_tmesh",
    "square_geometry",
    "fig_local_kv_raw",
    "fig_extensions_raw",
    "crossing_extensions_raw",
    "two_t_raw",
    "lsection_raw_tmesh",
    "lsection_patches",
    "cylinder_sector_patches",
    "cylinder_section_raw_tmesh",
    "waveguide_geometry",
]


def square_raw_tmesh(level: int = 0) -> RawTMesh:
    """Level ``level`` of the square-domain benchmark T-mesh family."""
    N = 2 ** (level + 2)  # number of breakpoint intervals per direction
    bx = [F(k, N) for k in range(N + 1)]
    by = [F(k, N) for k in range(N + 1)]
    half = N // 2
    faces = []
    for j in range(N):
        for i in range(half):
            faces.append((i, j, i + 1, j + 1))
    for j in range(0, N, 2):
        for i in range(half, N):
            faces.append((i, j, i + 1, j + 2))
    return RawTMesh(tuple(bx), tuple(by), tuple(faces))


def square_geometry(side: float = float(np.pi)) -> GeometryMap:
    """Affine map of the unit square onto (0, side)^2."""
    return affine_map(side, ndim=2)


def fig_local_kv_raw() -> RawTMesh:
    """T-mesh reproducing the local-knot-vector illustration for degrees (2, 3).

    Breakpoints at k/6; the horizontal line y = 1/6 spans only x in [0, 1/2],
    ending in one horizontal T-junction; all other lines are full.
    """
    b = [F(k, 6) for k in range(7)]
    faces = []
    for i in range(3):
        faces.append((i, 0, i + 1, 1))
        faces.append((i, 1, i + 1, 2))
    for i in range(3, 6):
        faces.append((i, 0, i + 1, 2))
    for j in range(2, 6):
        for i in range(6):
            faces.append((i, j, i + 1, j + 1))
    return RawTMesh(tuple(b), tuple(b), tuple(faces))


def fig_extensions_raw() -> RawTMesh:
    """Fixture with one horizontal and one vertical T-junction on a 6x6 grid.

    For degrees (2, 3): the horizontal junction extends one bay each way, the
    vertical one two bays forward and one backward; the extensions do not
    intersect.
    """
    b = [F(k, 6) for k in range(7)]
    faces = []
    # row 0: y=1/6 present only left of x=1/2; x=2/3 line absent below y=2/3
    faces += [(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1), (3, 0, 5, 2), (5, 0, 6, 2)]
    faces += [(0, 1, 1, 2), (1, 1, 2, 2), (2, 1, 3, 2)]
    for j in (2, 3):
        faces += [(0, j, 1, j + 1), (1, j, 2, j + 1), (2, j, 3, j + 1), (3, j, 5, j + 1), (5, j, 6, j + 1)]
    for j in (4, 5):
        faces += [(i, j, i + 1, j + 1) for i in range(6)]
    return RawTMesh(tuple(b), tuple(b), tuple(faces))


def crossing_extensions_raw() -> RawTMesh:
    """Two T-junctions whose extensions cross for degrees (3, 3): not AS."""
    b = [F(k, 4) for k in range(5)]
    faces = [
        (0, 0, 1, 1), (1, 0, 2, 1),
        (0, 1, 1, 2), (1, 1, 2, 2),
        (2, 0, 4, 2),
        (0, 2, 1, 3), (1, 2, 2, 3), (2, 2, 4, 3),
        (0, 3, 1, 4), (1, 3, 2, 4), (2, 3, 3, 4), (3, 3, 4, 4),
    ]
    return RawTMesh(tuple(b), tuple(b), tuple(faces))


def two_t_raw() -> RawTMesh:
    """Hand-built mesh with two facing horizontal T-junctions (AS for p<=2)."""
    b = [F(k, 4) for k in range(5)]
    faces = [
        (0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 4, 1),
        (0, 1, 1, 2), (1, 1, 2, 2), (2, 1, 3, 2), (3, 1, 4, 2),
        (0, 2, 2, 3), (2, 2, 3, 3), (3, 2, 4, 3),
        (0, 3, 1, 4), (1, 3, 2, 4), (2, 3, 3, 4), (3, 3, 4, 4),
    ]
    return RawTMesh(tuple(b), tuple(b), tuple(faces))


# -- L-shaped section -----------------------------------------------------------


def lsection_raw_tmesh(level: int, degree: int, start: int = 8) -> RawTMesh:
    """Dyadically corner-refined T-mesh near the parametric corner (0, 0).

    Level 0 is the uniform start x start mesh.  Level 1 refines a 3 x 3 block
    of elements, later levels a 2 x 2 block of the current finest elements;
    new lines are prolonged by ceil(p/2) bays of the surrounding spacing so
    the mesh remains analysis-suitable.
    """
    fb = (degree + 1) // 2
    h = F(1, start)
    # refinement block sizes per level
    sizes = []
    for lev in range(1, level + 1):
        if lev == 1:
            sizes.append((3 * h, h / 2))
        else:
            prev = sizes[-1][1]
            sizes.append((2 * prev, prev / 2))
    xs = {F(k, start) for k in range(start + 1)}
    segs = []  # (value, reach) pairs for the fine lines of each level
    for (block, hfine) in sizes:
        reach = block + fb * (2 * hfine)
        v = hfine
        while v < block:
            if v not in xs:
                segs.append((v, reach))
                xs.add(v)
            v += 2 * hfine
    bp = sorted(xs)
    idx = {v: k for k, v in enumerate(bp)}
    n = len(bp)
    reach_of = {v: r for v, r in segs}

    def line_extent(v):
        # index up to which the line at value v is present (full if coarse)
        if v in reach_of:
            return idx[reach_of[v]]
        return n - 1

    # elementary edge grids; the faces are read off the mesh they render
    VE = np.zeros((n, n - 1), dtype=bool)
    HE = np.zeros((n - 1, n), dtype=bool)
    for v in bp:
        i = idx[v]
        ext = line_extent(v)
        VE[i, :ext] = True
        HE[:ext, i] = True
    return RawTMesh(tuple(bp), tuple(bp), tuple(TMesh2D(bp, bp, VE, HE, (1, 1)).faces))


def lsection_patches():
    """Three unit patches covering the L-shaped section (-1,1)^2 \\ [-1,0]^2.

    Each patch maps the parametric corner (0, 0) onto the reentrant corner
    and has a positively oriented affine (rotation) map.
    """
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    rotm90 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ident = np.eye(2)
    return [
        linear_patch(rot90),  # (-1,0) x (0,1)
        linear_patch(ident),  # (0,1) x (0,1)
        linear_patch(rotm90),  # (0,1) x (-1,0)
    ]


def linear_patch(A, b=None) -> GeometryMap:
    """Degree-1 spline patch realizing x = A zeta + b."""
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    kvs = tuple(KnotVector.uniform(1, 1) for _ in range(d))
    grev = [np.array([0.0, 1.0])] * d
    grids = np.meshgrid(*grev, indexing="ij")
    zeta = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    cp = zeta @ A.T + b
    return GeometryMap(kvs, cp)


def prism_patch(A2, b2=None, zlen: float = 1.0) -> GeometryMap:
    """3D patch: a planar affine section extruded along z."""
    A2 = np.asarray(A2, dtype=float)
    b2 = np.zeros(2) if b2 is None else np.asarray(b2, dtype=float)
    A = np.zeros((3, 3))
    A[:2, :2] = A2
    A[2, 2] = zlen
    b = np.array([b2[0], b2[1], 0.0])
    return linear_patch(A, b)


# -- cylinder sector --------------------------------------------------------------


def cylinder_sector_patches(nz: float = 1.0):
    """Three quarter-disk slices (times z) covering 3/4 of the unit cylinder.

    Each slice is a degenerate NURBS patch: linear in the radius, a rational
    quarter arc in the angle; the whole edge zeta1 = 0 collapses onto the
    axis.
    """
    out = []
    w = np.sqrt(2) / 2
    arcs = [
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]]),
        np.array([[-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0]]),
    ]
    kv_r = KnotVector.uniform(1, 1)
    kv_t = KnotVector.uniform(2, 1)
    kv_z = KnotVector.uniform(1, 1)
    for arc in arcs:
        cp2, wts2 = [], []
        for j in range(3):
            for i in range(2):
                cp2.append(arc[j] * (0.0 if i == 0 else 1.0))
                wts2.append(1.0 if j != 1 else w)
        cp2 = np.asarray(cp2)
        wts2 = np.asarray(wts2)
        cp = np.vstack([np.column_stack([cp2, np.full(6, z)]) for z in (0.0, nz)])
        wts = np.concatenate([wts2, wts2])
        out.append(GeometryMap((kv_r, kv_t, kv_z), cp, wts))
    return out


def cylinder_section_raw_tmesh(level: int, start: int = 4) -> RawTMesh:
    """Band refinement toward the collapsed edge zeta1 = 0 of a slice.

    Level l splits every element with zeta1 < 2^-l-ish in four, producing
    horizontal T-junctions only (extensions never intersect).
    """
    xs = {F(k, start) for k in range(start + 1)}
    ys = {F(k, start) for k in range(start + 1)}
    segs = []
    band = F(1, start)
    hy = F(1, start)
    for lev in range(level):
        hy = hy / 2
        newx = band / 2
        xs.add(newx)
        for k in range(1, int(1 / hy), 2):
            v = F(k) * hy
            if v not in ys:
                segs.append((v, band))
                ys.add(v)
        band = newx
    bx = sorted(xs)
    by = sorted(ys)
    idx_x = {v: k for k, v in enumerate(bx)}
    nx, ny = len(bx), len(by)
    VE = np.zeros((nx, ny - 1), dtype=bool)
    HE = np.zeros((nx - 1, ny), dtype=bool)
    VE[:, :] = True  # vertical lines are all full height
    reach = {v: r for v, r in segs}
    for j, v in enumerate(by):
        lim = idx_x[reach[v]] if v in reach else nx - 1
        HE[:lim, j] = True
    return RawTMesh(tuple(bx), tuple(by), tuple(TMesh2D(bx, by, VE, HE, (1, 1)).faces))


def waveguide_geometry(length: float = 1.0, npatches: int = 2):
    """Straight guide with square section (0, pi)^2, split into z patches."""
    out = []
    dz = length / npatches
    for k in range(npatches):
        A = np.diag([np.pi, np.pi, dz])
        b = np.array([0.0, 0.0, k * dz])
        out.append(linear_patch(A, b))
    return out
