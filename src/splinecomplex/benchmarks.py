"""Benchmark mesh and geometry builders used by the fixtures, tests and CLI.

The square-domain eigenproblem family: the coarsest mesh has 8 square
elements in the left half and 4 taller rectangles in the right half, with
T-junctions on the line x = 1/2; each refinement splits every element in 4.

The L-section and cylinder-section families are drawn by one rule: each
line runs from 0 up to its reach (:func:`_drawn`).  The L-section refines a
corner block of its 8 x 8 start mesh dyadically per level; a new line
reaches ceil(p/2) bays of the surrounding spacing beyond the block, its face
extension for degree p, so the mesh stays analysis-suitable.

The thick L and the cylinder sector are prisms: each is defined here by its
planar section patches and their interfaces, and its 3D patches are the
sections' ``extrude``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .bspline import KnotVector
from .geometry import GeometryMap, affine_map, linear_patch
from .multipatch import Interface
from .tmesh import RawTMesh, TMesh2D

F = Fraction

LSECTION_START = 8  # elements per direction of the L-section start mesh
CYLINDER_START = 4  # elements per direction of the cylinder-section start mesh

# The interfaces of the three L-section patches and of the three
# quarter-disk sections of the cylinder (and of their prisms).
LSECTION_INTERFACES = (Interface((0, (1, 0)), (1, (0, 0))), Interface((1, (1, 0)), (2, (0, 0))))
CYLINDER_INTERFACES = (Interface((0, (1, 1)), (1, (1, 0))), Interface((1, (1, 1)), (2, (1, 0))))

__all__ = [
    "square_raw_tmesh",
    "square_geometry",
    "fig_local_kv_raw",
    "fig_extensions_raw",
    "crossing_extensions_raw",
    "two_t_raw",
    "lsection_raw_tmesh",
    "lsection_patches",
    "LSECTION_INTERFACES",
    "cylinder_sector_patches",
    "CYLINDER_INTERFACES",
    "cylinder_section_raw_tmesh",
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


def _drawn(vertical: dict, horizontal: dict) -> RawTMesh:
    """The T-mesh drawn by lines with a reach.

    ``vertical`` and ``horizontal`` map each line value v to its reach r:
    the line x = v (or y = v) runs from 0 up to the first breakpoint of the
    other direction at or beyond r, so a reach of 1 crosses the square.  The
    faces are read off the degree-one mesh the lines render.
    """
    bx, by = sorted(vertical), sorted(horizontal)
    VE = np.arange(len(by) - 1) < np.searchsorted(by, [vertical[v] for v in bx])[:, None]
    HE = np.arange(len(bx) - 1)[:, None] < np.searchsorted(bx, [horizontal[v] for v in by])
    return RawTMesh(tuple(bx), tuple(by), tuple(TMesh2D(bx, by, VE, HE, (1, 1)).faces))


# -- L-shaped section -----------------------------------------------------------


def lsection_raw_tmesh(level: int, degree: int) -> RawTMesh:
    """Dyadically corner-refined T-mesh near the parametric corner (0, 0).

    Level 0 is the uniform start mesh.  Level 1 refines a 3 x 3 block of
    elements, later levels a 2 x 2 block of the current finest elements.
    """
    lines = {F(k, LSECTION_START): 1 for k in range(LSECTION_START + 1)}
    block, fine = F(3, LSECTION_START), F(1, 2 * LSECTION_START)
    for _ in range(level):
        for k in range(1, int(block / fine), 2):  # the first value given to a line wins
            lines.setdefault(k * fine, block + (degree + 1) // 2 * 2 * fine)
        block, fine = 2 * fine, fine / 2
    return _drawn(lines, lines)


def lsection_patches():
    """Three unit patches covering the L-shaped section (-1,1)^2 \\ [-1,0]^2.

    Each patch maps the parametric corner (0, 0) onto the reentrant corner
    and has a positively oriented affine (rotation) map; their ``extrude``
    are the patches of the thick L.
    """
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    # (-1,0) x (0,1), (0,1) x (0,1) and (0,1) x (-1,0)
    return [linear_patch(rot90), linear_patch(np.eye(2)), linear_patch(rot90.T)]


# -- cylinder sector --------------------------------------------------------------


def cylinder_sector_patches():
    """Three quarter-disk sections covering 3/4 of the unit disk; their
    ``extrude`` are the slices of the cylinder sector.

    Each section is a degenerate NURBS patch: linear in the radius, a
    rational quarter arc in the angle; the whole edge zeta1 = 0 collapses
    onto the axis.
    """
    arcs = [
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]]),
        np.array([[-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0]]),
    ]
    kvs, wts = (KnotVector.uniform(1, 1), KnotVector.uniform(2, 1)), np.repeat([1.0, np.sqrt(2) / 2, 1.0], 2)
    radius = np.tile([0.0, 1.0], 3)[:, None]  # the axis, then the arc point: direction 1 fastest
    return [GeometryMap(kvs, np.repeat(arc, 2, axis=0) * radius, wts) for arc in arcs]


def cylinder_section_raw_tmesh(level: int) -> RawTMesh:
    """Band refinement toward the collapsed edge zeta1 = 0 of a slice.

    Level l splits every element with zeta1 < 2^-l-ish in four, producing
    horizontal T-junctions only (extensions never intersect).  Level 0 is
    the uniform start mesh.
    """
    xs = {F(k, CYLINDER_START): 1 for k in range(CYLINDER_START + 1)}
    ys = dict(xs)
    band = hy = F(1, CYLINDER_START)
    for _ in range(level):
        hy = hy / 2
        for k in range(1, int(1 / hy), 2):
            ys.setdefault(k * hy, band)
        band = band / 2
        xs[band] = 1
    return _drawn(xs, ys)
