"""T-mesh structure, extensions, analysis-suitability and anchor tracing."""

import bisect
import math
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splinecomplex.benchmarks import (
    crossing_extensions_raw,
    cylinder_section_raw_tmesh,
    fig_extensions_raw,
    fig_local_kv_raw,
    lsection_raw_tmesh,
    square_raw_tmesh,
    two_t_raw,
)
from splinecomplex.bspline import KnotVector
from splinecomplex.serialization import dump_json, load_json, tmesh_to_dict
from splinecomplex.tmesh import (
    Extension,
    RawTMesh,
    TMesh2D,
    TMeshError,
    TsplineSpace,
    tensor_raw_tmesh,
    validate_tmesh,
)
from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes, verify_t_exactness
from tests.test_bspline import _exact_deriv, cox_de_boor_exact

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def uniform_raw(n):
    b = [F(k, n) for k in range(n + 1)]
    return tensor_raw_tmesh(b, b)


def test_tensor_mesh_no_tjunctions():
    mesh = validate_tmesh(uniform_raw(3), (2, 3))
    assert mesh.t_junctions() == []
    assert mesh.compute_extensions() == []
    assert mesh.is_analysis_suitable()[0]
    assert mesh.check_strong_as()[0]


def test_tensor_mesh_census_matches_1d_product():
    # rendered lines per direction follow the boundary-multiplicity rule
    mesh = validate_tmesh(uniform_raw(2), (2, 3))
    kvx = KnotVector(2, (F(0), F(1, 2), F(1)), (3, 1, 3))
    kvy = KnotVector(3, (F(0), F(1, 2), F(1)), (4, 1, 4))
    assert mesh.xs == kvx.rendered_lines()
    assert mesh.ys == kvy.rendered_lines()
    c = mesh.census()
    nlx, nly = len(mesh.xs), len(mesh.ys)
    assert c["V0"] == nlx * nly
    assert c["F0"] == (nlx - 1) * (nly - 1)
    assert mesh.euler()


def test_validation_errors():
    b = (F(0), F(1, 2), F(1))
    with pytest.raises(TMeshError, match="gap"):
        RawTMesh(b, b, ((0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2))).edge_grids()
    with pytest.raises(TMeshError, match="overlap"):
        RawTMesh(b, b, ((0, 0, 2, 2), (0, 0, 1, 1))).edge_grids()
    with pytest.raises(TMeshError):
        RawTMesh(b, b, ((0, 0, 2, 3),)).edge_grids()


def test_l_shaped_region_is_not_a_face():
    # 2 x 2 cells: the edges inside the lower-left L are missing, the two
    # edges of the upper-right cell that face it are present; no edge dangles
    b = (F(0), F(1, 2), F(1))
    VE = np.ones((3, 2), dtype=bool)
    HE = np.ones((2, 3), dtype=bool)
    VE[1, 0] = HE[0, 1] = False
    with pytest.raises(TMeshError, match="non-rectangular face"):
        TMesh2D(b, b, VE, HE, (1, 1))


def test_square_benchmark_census_and_euler():
    mesh = validate_tmesh(square_raw_tmesh(0), (3, 3))
    c = mesh.census()
    assert c == {"F0": 30, "V0": 43, "E0": 72, "E0_h": 36, "E0_v": 36, "V0_h": 2, "V0_v": 0}
    assert mesh.euler()
    mesh1 = validate_tmesh(square_raw_tmesh(1), (3, 3))
    c1 = mesh1.census()
    assert (c1["F0"], c1["V0"], c1["E0"], c1["V0_h"]) == (80, 101, 180, 4)
    assert mesh1.euler()


def test_square_benchmark_as_and_strong():
    for level in (0, 1):
        for p in (2, 3, 4, 5):
            mesh = validate_tmesh(square_raw_tmesh(level), (p, p))
            assert mesh.is_analysis_suitable()[0]
            assert mesh.check_strong_as()[0]


def test_square_extensions_level0():
    mesh = validate_tmesh(square_raw_tmesh(0), (3, 3))
    exts = mesh.compute_extensions()
    assert len(exts) == 2
    for e in exts:
        assert e.orientation == "h"
        assert (e.face_bays, e.edge_bays) == (2, 1)
        lo, hi = e.full_range
        assert (mesh.xs[lo], mesh.xs[hi]) == (F(1, 4), F(1))


def test_fig_extensions_fixture():
    mesh = validate_tmesh(fig_extensions_raw(), (2, 3))
    exts = {e.orientation: e for e in mesh.compute_extensions()}
    assert set(exts) == {"h", "v"}
    eh, ev = exts["h"], exts["v"]
    assert (eh.face_bays, eh.edge_bays) == (1, 1)
    assert (ev.face_bays, ev.edge_bays) == (2, 1)
    # frozen segment endpoints from manual bay counting
    assert (mesh.xs[eh.face_range[0]], mesh.xs[eh.face_range[1]]) == (F(1, 2), F(5, 6))
    assert (mesh.xs[eh.edge_range[0]], mesh.xs[eh.edge_range[1]]) == (F(1, 3), F(1, 2))
    assert (mesh.ys[ev.face_range[0]], mesh.ys[ev.face_range[1]]) == (F(1, 3), F(2, 3))
    assert (mesh.ys[ev.edge_range[0]], mesh.ys[ev.edge_range[1]]) == (F(2, 3), F(5, 6))
    assert mesh.is_analysis_suitable()[0]
    assert mesh.check_strong_as()[0]
    assert mesh.euler()


def test_crossing_extensions_not_as():
    mesh = validate_tmesh(crossing_extensions_raw(), (3, 3))
    ok, pair = mesh.is_analysis_suitable()
    assert not ok
    eh, ev = pair
    assert eh.orientation == "h" and ev.orientation == "v"
    ok2, reason = mesh.check_strong_as()
    assert not ok2
    assert mesh.euler()


def test_two_t_fixture_as_but_not_strong():
    mesh = validate_tmesh(two_t_raw(), (2, 2))
    assert {t[2] for t in mesh.t_junctions()} == {"v"}
    assert mesh.is_analysis_suitable()[0]
    ok, reason = mesh.check_strong_as()
    assert not ok and reason[0] == "parallel extension overlap"
    assert mesh.euler()


def test_fig_local_kv_reproduced():
    mesh = validate_tmesh(fig_local_kv_raw(), (2, 3))
    assert len(mesh.t_junctions()) == 1
    anchors = mesh.anchors()
    got = {(a.lkv1, a.lkv2) for a in anchors}
    a1 = (
        (F(0), F(0), F(1, 6), F(2, 6)),
        (F(0), F(0), F(0), F(1, 6), F(2, 6)),
    )
    a2 = (
        (F(3, 6), F(4, 6), F(5, 6), F(1)),
        (F(0), F(2, 6), F(3, 6), F(4, 6), F(5, 6)),
    )
    assert a1 in got
    assert a2 in got


def test_tensor_anchors_reduce_to_bspline():
    b = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    raw = tensor_raw_tmesh(b, b)
    for (p1, p2) in ((2, 2), (3, 3), (2, 3), (3, 2)):
        mesh = validate_tmesh(raw, (p1, p2))
        anchors = mesh.anchors()
        kv1 = KnotVector(p1, tuple(b), (p1 + 1, 1, 1, 1, p1 + 1))
        kv2 = KnotVector(p2, tuple(b), (p2 + 1, 1, 1, 1, p2 + 1))
        a1 = kv1.anchors()
        a2 = kv2.anchors()
        assert len(anchors) == len(a1) * len(a2)
        for idx, a in enumerate(anchors):
            i, j = idx % len(a1), idx // len(a1)
            assert a.lkv1 == a1[i].local, (p1, p2, idx)
            assert a.lkv2 == a2[j].local
            assert a.position == (a1[i].position, a2[j].position)


def test_square_anchor_count_is_vertex_count():
    mesh = validate_tmesh(square_raw_tmesh(0), (3, 3))
    assert len(mesh.anchors()) == mesh.census()["V0"]  # odd-odd: one per vertex
    mesh2 = validate_tmesh(square_raw_tmesh(0), (2, 2))
    assert len(mesh2.anchors()) == mesh2.census()["F0"]  # even-even: one per face


def test_extended_mesh_tensor_unchanged():
    mesh = validate_tmesh(uniform_raw(3), (3, 3))
    ext = mesh.extended()
    assert ext.line_segments_by_value() == mesh.line_segments_by_value()


def test_extended_mesh_square_adds_segments():
    mesh = validate_tmesh(square_raw_tmesh(0), (3, 3))
    ext = mesh.extended()
    assert ext.euler()
    segs = ext.line_segments_by_value()
    # the two T-junction rows now span [1/4, 1]
    assert ("h", F(1, 4), F(0), F(1)) in segs
    assert ("h", F(3, 4), F(0), F(1)) in segs
    # the extended rows reach the outer boundary: no T-junctions remain and
    # the four tall right-half elements are split in two
    assert ext.t_junctions() == []
    assert len(ext.positive_faces()) == len(mesh.positive_faces()) + 4


def test_tspline_eval_nonnegative_and_outside_error():
    mesh = validate_tmesh(square_raw_tmesh(0), (3, 3))
    space = TsplineSpace(mesh)
    rng = np.random.default_rng(20)
    pts = rng.uniform(0, 1, size=(40, 2))
    assert np.all(space.basis(pts) >= -1e-14)
    with pytest.raises(ValueError):
        space.eval(np.ones(space.dim), [[1.2, 0.5]])


def test_tspline_tensor_reduction_matches_bspline():
    b = [F(0), F(1, 3), F(2, 3), F(1)]
    raw = tensor_raw_tmesh(b, b)
    mesh = validate_tmesh(raw, (2, 2))
    space = TsplineSpace(mesh)
    kv = KnotVector(2, tuple(b), (3, 1, 1, 3))
    from splinecomplex.bspline import eval_basis

    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 1, size=(25, 2))
    coeffs = rng.standard_normal(space.dim)
    vx = eval_basis(kv, pts[:, 0])
    vy = eval_basis(kv, pts[:, 1])
    tensor_vals = np.einsum("pi,pj,ij->p", vx, vy, coeffs.reshape(kv.n, kv.n, order="F"))
    npt.assert_allclose(space.eval(coeffs, pts), tensor_vals, atol=1e-12)


def test_polynomial_reproduction_on_extended_mesh():
    # on a strongly AS mesh every T-spline restricted to an extended-mesh
    # element is a polynomial of degree (p1, p2): exact interpolation residual
    p = 3
    mesh = validate_tmesh(square_raw_tmesh(0), (p, p))
    assert mesh.check_strong_as()[0]
    space = TsplineSpace(mesh)
    ext = mesh.extended()
    rng = np.random.default_rng(22)
    coeffs = rng.standard_normal(space.dim)
    for f in ext.positive_faces()[:8]:
        x1, y1 = float(ext.xs[f[0]]), float(ext.ys[f[1]])
        x2, y2 = float(ext.xs[f[2]]), float(ext.ys[f[3]])
        xs = np.linspace(x1, x2, p + 1)
        ys = np.linspace(y1, y2, p + 1)
        G = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = space.eval(coeffs, G).reshape(p + 1, p + 1)
        Vx = np.vander(xs, p + 1)
        Vy = np.vander(ys, p + 1)
        C = np.linalg.solve(Vx, np.linalg.solve(Vy, vals.T).T)
        probe = np.column_stack(
            [rng.uniform(x1, x2, 12), rng.uniform(y1, y2, 12)]
        )
        interp = np.polynomial.polynomial.polyval2d(
            probe[:, 0], probe[:, 1], C[::-1, ::-1]
        )
        direct = space.eval(coeffs, probe)
        npt.assert_allclose(interp, direct, atol=1e-11 * max(1, np.abs(direct).max()))


def test_as_symmetric_under_mirror():
    # mirroring the crossing fixture leaves the AS verdict false
    raw = crossing_extensions_raw()
    n = len(raw.breakpoints_x) - 1
    mirrored_faces = tuple(
        (n - i2, j1, n - i1, j2) for (i1, j1, i2, j2) in raw.faces
    )
    mirrored = RawTMesh(raw.breakpoints_x, raw.breakpoints_y, mirrored_faces)
    assert not validate_tmesh(mirrored, (3, 3)).is_analysis_suitable()[0]
    # and transposing swaps the degrees but keeps the verdict
    transposed_faces = tuple((j1, i1, j2, i2) for (i1, j1, i2, j2) in raw.faces)
    transposed = RawTMesh(raw.breakpoints_y, raw.breakpoints_x, transposed_faces)
    assert not validate_tmesh(transposed, (3, 3)).is_analysis_suitable()[0]


@pytest.mark.parametrize("level", [0, 1, 2])
def test_refined_mesh_generators_match_fixtures(level):
    # the committed L-section and cylinder-section fixtures are these generators' output
    assert tmesh_to_dict(lsection_raw_tmesh(level, 4)) == load_json(FIXTURES / f"lsection_tmesh_p4_l{level}.json")
    assert tmesh_to_dict(cylinder_section_raw_tmesh(level)) == load_json(FIXTURES / f"cylinder_section_l{level}.json")


# faces of the L-section at levels 3-9, per degree; the fixtures stop at level 2
LSECTION_FACES = {
    1: (129, 145, 161, 177, 193, 209, 225),
    2: (129, 145, 161, 177, 193, 209, 225),
    3: (143, 163, 183, 203, 223, 243, 263),
    4: (143, 163, 183, 203, 223, 243, 263),
    5: (157, 181, 205, 229, 253, 277, 301),
}


def test_refined_mesh_generators_keep_their_counts_past_the_fixtures():
    # (x breakpoints, y breakpoints, faces)
    for p, faces in LSECTION_FACES.items():
        for level, n in zip(range(3, 10), faces):
            raw = lsection_raw_tmesh(level, p)
            assert (len(raw.breakpoints_x), len(raw.breakpoints_y), len(raw.faces)) == (2 * level + 10,) * 2 + (n,)
    for level, n in zip(range(3, 7), (100, 196, 388, 772)):
        raw = cylinder_section_raw_tmesh(level)
        assert (len(raw.breakpoints_x), len(raw.breakpoints_y), len(raw.faces)) == (level + 5, 2 ** (level + 2) + 1, n)


@pytest.mark.parametrize("level", [3, 4])
def test_degree5_lsection_builds_exact_complex(level):
    # at p=5 the reach of a fine line falls between breakpoints (5/32 at
    # level 3, 5/64 at level 4): the line runs on to the next breakpoint
    raw = lsection_raw_tmesh(level, 5)
    assert validate_tmesh(raw, (5, 5)).is_analysis_suitable()[0]
    rep = verify_t_exactness(build_tspline_complex(derive_complex_meshes(raw, 5)))
    assert rep.passed and rep.certified, rep.identities


# -- random analysis-suitable T-meshes against a Fraction-scan oracle -----------


def _oracle_hits(mesh, axis, k, locator):
    """Whether the line k of ``axis`` is crossed by the ray at ``locator``."""
    kind, m = locator
    E = mesh.VE if axis == 0 else mesh.HE.T
    if kind == "line":
        return bool((m > 0 and E[k, m - 1]) or (m < E.shape[1] and E[k, m]))
    return bool(E[k, m])


def _oracle_germs(mesh, i, j):
    """Edge germs left, right, below and above the grid point (i, j)."""
    L = i > 0 and mesh.HE[i - 1, j]
    R = i < mesh.nx - 1 and mesh.HE[i, j]
    D = j > 0 and mesh.VE[i, j - 1]
    U = j < mesh.ny - 1 and mesh.VE[i, j]
    return [bool(g) for g in (L, R, D, U)]


def _oracle_is_vertex(mesh, i, j):
    L, R, D, U = _oracle_germs(mesh, i, j)
    nh, nv = L + R, D + U
    return nh + nv > 0 and not ((nh == 2 and nv == 0) or (nv == 2 and nh == 0))


def _oracle_runs(E, is_vertex):
    """(line, start, end) runs of E[line, :], stepped one cell at a time and
    cut at vertices."""
    out = []
    for k in range(E.shape[0]):
        m = 0
        while m < E.shape[1]:
            if not E[k, m]:
                m += 1
                continue
            start, m = m, m + 1
            while m < E.shape[1] and E[k, m] and not is_vertex(k, m):
                m += 1
            out.append((k, start, m))
    return out


def _oracle_faces(mesh):
    """Faces by union-find of the cells joined across missing edges, one cell
    at a time, ordered by (j1, i1)."""
    nxc, nyc = mesh.nx - 1, mesh.ny - 1
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
            if not mesh.VE[i, j]:
                union(cell(i - 1, j), cell(i, j))
    for i in range(nxc):
        for j in range(1, nyc):
            if not mesh.HE[i, j]:
                union(cell(i, j - 1), cell(i, j))
    groups = {}
    for i in range(nxc):
        for j in range(nyc):
            groups.setdefault(find(cell(i, j)), []).append((i, j))
    faces = []
    for cells in groups.values():
        i1, i2 = min(c[0] for c in cells), max(c[0] for c in cells) + 1
        j1, j2 = min(c[1] for c in cells), max(c[1] for c in cells) + 1
        assert len(cells) == (i2 - i1) * (j2 - j1), "non-rectangular face"
        faces.append((i1, j1, i2, j2))
    return sorted(faces, key=lambda f: (f[1], f[0]))


def _census(mesh):
    return mesh.faces, mesh.vertices(), mesh.t_junctions(), mesh.horizontal_edges(), mesh.vertical_edges()


def _oracle_census(mesh):
    """Faces, vertices, T-junctions, horizontal and vertical edges by a scan
    of every grid point and cell."""
    points = [(i, j) for j in range(mesh.ny) for i in range(mesh.nx)]
    vertices = [(i, j) for i, j in points if _oracle_is_vertex(mesh, i, j)]
    tjs = []
    for i, j in points:
        L, R, D, U = _oracle_germs(mesh, i, j)
        if 0 < mesh.xs[i] < 1 and 0 < mesh.ys[j] < 1 and L + R + D + U == 3:
            tjs.append((i, j, "h", 1 if not R else -1) if not (L and R) else (i, j, "v", 1 if not U else -1))
    rows = _oracle_runs(mesh.HE.T, lambda j, i: _oracle_is_vertex(mesh, i, j))
    columns = _oracle_runs(mesh.VE, lambda i, j: _oracle_is_vertex(mesh, i, j))
    hedges = sorted(((a, b, j) for j, a, b in rows), key=lambda e: (e[2], e[0]))
    vedges = sorted(columns, key=lambda e: (e[1], e[0]))
    return _oracle_faces(mesh), vertices, tjs, hedges, vedges


def _oracle_walk(mesh, orientation, line, start, step, bays):
    """Index of the ``bays``-th line crossed marching from ``start``, one
    line at a time (clipped at the last line crossed)."""
    axis = "hv".index(orientation)
    hits, last, k = 0, start, start + step
    while 0 <= k < (mesh.nx, mesh.ny)[axis] and hits < bays:
        if _oracle_hits(mesh, axis, k, ("line", line)):
            hits, last = hits + 1, k
        k += step
    return last


def _oracle_extensions(mesh):
    out = []
    for i, j, orientation, sense in _oracle_census(mesh)[2]:
        p = mesh.degrees["hv".index(orientation)]
        start, line = (i, j) if orientation == "h" else (j, i)
        face = sorted((start, _oracle_walk(mesh, orientation, line, start, sense, (p + 1) // 2)))
        edge = sorted((start, _oracle_walk(mesh, orientation, line, start, -sense, p // 2)))
        out.append(Extension((i, j, orientation), orientation, line, tuple(face), tuple(edge), (p + 1) // 2, p // 2))
    return out


def _oracle_locator(mesh, axis, lo, hi):
    # the line table scanned by value, as anchors were located before ranks
    table = mesh.xs if axis == 0 else mesh.ys
    if table[lo] == table[hi]:
        assert hi == lo + 1
        return ("span", lo), table[lo]
    mid = (table[lo] + table[hi]) / 2
    matches = [k for k in range(len(table)) if table[k] == mid]
    assert len(matches) <= 1
    if matches:
        return ("line", matches[0]), mid
    return ("span", bisect.bisect_right(table, mid) - 1), mid


def _oracle_trace(mesh, axis, locator, other_locator, degree):
    # one line at a time outward from the anchor, padding with 0 and 1
    table = mesh.xs if axis == 0 else mesh.ys
    kind, k0 = locator
    if degree % 2 == 1:
        assert kind == "line"
        need, center, left_from = (degree + 1) // 2, [table[k0]], k0 - 1
    else:
        need, center = (degree + 2) // 2, []
        left_from = k0 if kind == "span" else k0 - 1
    left = [table[k] for k in range(left_from, -1, -1) if _oracle_hits(mesh, axis, k, other_locator)]
    right = [table[k] for k in range(k0 + 1, len(table)) if _oracle_hits(mesh, axis, k, other_locator)]
    left = (left[:need] + [F(0)] * need)[:need]
    right = (right[:need] + [F(1)] * need)[:need]
    return tuple(reversed(left)) + tuple(center) + tuple(right)


def _oracle_anchors(mesh):
    p1, p2 = mesh.degrees
    out = []
    for idx, (kind, ent) in enumerate(mesh.anchor_entities()):
        if kind == "vertex":
            i, j = ent
            locx, posx = ("line", i), mesh.xs[i]
            locy, posy = ("line", j), mesh.ys[j]
        elif kind == "hedge":
            i1, i2, j = ent
            locx, posx = _oracle_locator(mesh, 0, i1, i2)
            locy, posy = ("line", j), mesh.ys[j]
        elif kind == "vedge":
            i, j1, j2 = ent
            locx, posx = ("line", i), mesh.xs[i]
            locy, posy = _oracle_locator(mesh, 1, j1, j2)
        else:
            i1, j1, i2, j2 = ent
            locx, posx = _oracle_locator(mesh, 0, i1, i2)
            locy, posy = _oracle_locator(mesh, 1, j1, j2)
        lkv1 = _oracle_trace(mesh, 0, locx, locy, p1)
        lkv2 = _oracle_trace(mesh, 1, locy, locx, p2)
        out.append((idx, (posx, posy), (locx, locy), lkv1, lkv2))
    return out


@st.composite
def refined_tmeshes(draw):
    """A degree and a raw T-mesh: a small uniform tensor mesh whose random
    faces are split at their midpoints, with one interior line of the tensor
    mesh repeated 2..p times in some draws."""
    p = draw(st.integers(1, 4))
    n = [draw(st.integers(1, 3)) for _ in range(2)]
    faces = [
        (F(i, n[0]), F(j, n[1]), F(i + 1, n[0]), F(j + 1, n[1]))
        for j in range(n[1])
        for i in range(n[0])
    ]
    for pick in draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4)):
        x1, y1, x2, y2 = faces.pop(pick % len(faces))
        xm, ym = (x1 + x2) / 2, (y1 + y2) / 2
        faces += [(x1, y1, xm, ym), (xm, y1, x2, ym), (x1, ym, xm, y2), (xm, ym, x2, y2)]
    bx = sorted({f[0] for f in faces} | {f[2] for f in faces})
    by = sorted({f[1] for f in faces} | {f[3] for f in faces})
    multiplicities = {}
    lines = [(axis, F(k, n[d])) for d, axis in enumerate("xy") for k in range(1, n[d])]
    if p >= 2 and lines and draw(st.booleans()):
        axis, value = draw(st.sampled_from(lines))
        table = bx if axis == "x" else by
        multiplicities[(axis, table.index(value))] = draw(st.integers(2, p))
    boxes = tuple((bx.index(x1), by.index(y1), bx.index(x2), by.index(y2)) for x1, y1, x2, y2 in faces)
    return p, RawTMesh(tuple(bx), tuple(by), boxes, multiplicities)


def _crossed_repeated_lines(mesh):
    """(extension, line) pairs where an extension crosses an interior line of
    multiplicity above one, by value scan."""
    out = []
    for e in mesh.compute_extensions():
        axis = 0 if e.orientation == "h" else 1
        table = mesh.xs if axis == 0 else mesh.ys
        for k in range(e.full_range[0], e.full_range[1] + 1):
            hit = _oracle_hits(mesh, axis, k, ("line", e.line_index))
            if hit and 0 < table[k] < 1 and table.count(table[k]) > 1:
                out.append((e, k))
    return out


@settings(max_examples=100, deadline=None)
@given(refined_tmeshes())
def test_ranked_anchors_match_fraction_scan_on_random_meshes(case):
    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    cm = derive_complex_meshes(raw, p)
    extended = cm.M0.extended()  # M0 is the raw mesh rendered
    assert _census(extended) == _oracle_census(extended)
    for mesh in (cm.M0, cm.M11, cm.M12, cm.M2):
        assert _census(mesh) == _oracle_census(mesh)
        assert mesh.compute_extensions() == _oracle_extensions(mesh)
        anchors = mesh.anchors()
        assert [(a.index, a.position, a.locators, a.lkv1, a.lkv2) for a in anchors] == _oracle_anchors(mesh)
        vx, vy = mesh.line_values
        for a in anchors:  # the rank key spells the local knot vectors
            assert (tuple(vx[r] for r in a.key[0]), tuple(vy[r] for r in a.key[1])) == (a.lkv1, a.lkv2)
    crossed = _crossed_repeated_lines(cm.M0)
    ok, reason = cm.M0.check_strong_as()
    if ok or reason[0] == "repeated line crossed":
        assert (reason and reason[1]) == (crossed[0] if crossed else None)
    try:
        tcx = build_tspline_complex(cm)
    except TMeshError:
        # the known failure, see test_extension_crossing_a_repeated_line_builds_exact_complex
        assert crossed
        return
    d0, d1, d2 = tcx.dims
    assert d0 + d2 == d1 + 1
    rep = verify_t_exactness(tcx)
    assert rep.passed and rep.certified, rep.identities


def _exact_factor_table(space, d, xs, deriv):
    """The direction-d factors of all anchors of ``space`` (or their
    derivatives) at the rational abscissae ``xs``, shape (len(xs), dim):
    the Fraction Cox-de Boor recursion on the exact local knot vectors,
    times (q+1)/|support| under 'D' scaling, rounded to float once."""
    from tests.test_bspline import _exact_deriv, cox_de_boor_exact

    q, scaling = space.degrees[d], space.scalings[d]
    out = np.empty((len(xs), space.dim))
    memo = {}  # (local knot vector, x) -> value; many anchors share one
    for i, x in enumerate(xs):
        for a in space.anchors:
            t = (a.lkv1, a.lkv2)[d]
            if (t, x) not in memo:
                v = _exact_deriv(t, q, x) if deriv else cox_de_boor_exact(t, q, 0, x)
                memo[t, x] = float(v * (q + 1) / (t[-1] - t[0]) if scaling == "D" else v)
            out[i, a.index] = memo[t, x]
    return out


def _assert_close_to_exact(got, want):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))


@settings(max_examples=25, deadline=None)
@given(refined_tmeshes())
def test_tspline_tabulation_matches_exact_recursion_on_random_meshes(case):
    """The float tabulation of the four spaces of the complex (B and D
    scalings, degrees p and p-1) against the exact Fraction recursion:
    ``basis`` at rational points, and ``element_tables`` (values and both
    derivatives) on every element's Gauss grid without its padding, where
    the anchors it leaves out vanish exactly."""
    from splinecomplex.assembly import _rules_2d

    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    cm = derive_complex_meshes(raw, p)
    xs, ys = [F(i, 7) for i in range(1, 7)], [F(j, 11) for j in range(1, 11, 2)]
    for mesh, scalings in zip((cm.M0, cm.M11, cm.M12, cm.M2), (("B", "B"), ("D", "B"), ("B", "D"), ("D", "D"))):
        space = TsplineSpace(mesh, scalings)
        assert space.degrees == tuple(p - (s == "D") for s in scalings)
        pts = np.array([(float(x), float(y)) for x in xs for y in ys])
        want = _exact_factor_table(space, 0, xs, 0)[:, None, :] * _exact_factor_table(space, 1, ys, 0)[None, :, :]
        _assert_close_to_exact(space.basis(pts), want.reshape(pts.shape[0], -1))
        order = max(space.degrees) + 1
        act_all, *tables_all = space.element_tables(order, "value", "dx", "dy")
        exact = {}  # (direction, abscissae) -> tables, shared by a row or column of elements
        for e, P in enumerate(_rules_2d(space.elements, order)[0]):
            for d, g in ((0, P[::order, 0]), (1, P[:order, 1])):
                if (d, tuple(g)) not in exact:
                    exact[d, tuple(g)] = [_exact_factor_table(space, d, [F(float(v)) for v in g], k) for k in (0, 1)]
            X, Y = exact[0, tuple(P[::order, 0])], exact[1, tuple(P[:order, 1])]
            keep = act_all[e] >= 0  # the padding masked out
            act = act_all[e][keep]
            for got, (kx, ky) in zip((t[e] for t in tables_all), ((0, 0), (1, 0), (0, 1))):
                want = (X[kx][:, None, :] * Y[ky][None, :, :]).reshape(order * order, -1)
                _assert_close_to_exact(got[keep].T, want[:, act])
                assert not np.any(np.delete(want, act, axis=1))


@settings(max_examples=20, deadline=None)
@given(refined_tmeshes())
@example((3, crossing_extensions_raw()))
def test_padded_tables_on_random_meshes_with_or_without_analysis_suitability(case):
    """Elements of a mesh that is not analysis-suitable (drawn here, unlike
    above) carry unequal numbers of active anchors, so the batched tables
    are padded.  On every element they equal the exact recursion and the
    padding rows vanish; the padding is never scattered, so ``gram_matrix``
    has the values and the sparsity of a COO sum of per-element kernels,
    and so has a two-component mass."""
    import scipy.sparse as sp

    from splinecomplex import assembly
    from splinecomplex.assembly import Scalar2D, Vector2D, _rules_2d, assemble_matrix_2d
    from splinecomplex.geometry import affine_map

    p, raw = case
    space = TsplineSpace(TMesh2D.from_raw(raw, (p, p)))
    order = p + 1
    act, *tables = space.element_tables(order, "value", "dx", "dy")
    tx, ty = (r.knots for r in space.knot_rows)
    rows, cols, vals, exact = [], [], [], {}  # exact: (direction, abscissae) -> tables
    for e, (box, P, W) in enumerate(zip(space.elements, *_rules_2d(space.elements, order))):
        for d, g in ((0, P[::order, 0]), (1, P[:order, 1])):
            if (d, tuple(g)) not in exact:
                exact[d, tuple(g)] = [_exact_factor_table(space, d, [F(float(v)) for v in g], k) for k in (0, 1)]
        X, Y = exact[0, tuple(P[::order, 0])], exact[1, tuple(P[:order, 1])]
        a = act[e][act[e] >= 0]
        over = (tx[:, 0] < box[2]) & (tx[:, -1] > box[0]) & (ty[:, 0] < box[3]) & (ty[:, -1] > box[1])
        assert np.array_equal(a, np.flatnonzero(over)) and np.all(act[e][a.size :] == -1)  # padded at the end
        for got, (kx, ky) in zip(tables, ((0, 0), (1, 0), (0, 1))):
            want = (X[kx][:, None, :] * Y[ky][None, :, :]).reshape(order * order, -1)
            _assert_close_to_exact(got[e][: a.size].T, want[:, a])
            assert not np.any(got[e][a.size :]) and not np.any(np.delete(want, a, axis=1))
        v = tables[0][e][: a.size]
        rows.append(np.repeat(a, a.size))
        cols.append(np.tile(a, a.size))
        vals.append((v @ (W[:, None] * v.T)).ravel())
    want = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(space.dim,) * 2).tocsr()
    want.sort_indices()
    idx = assembly._space_tables(Scalar2D(space), order, False)[0]
    assert assembly._pattern(space.dim, idx)[2].size == sum(map(len, rows))  # real pairs only
    got = assemble_matrix_2d(Scalar2D(space), affine_map(1.0, ndim=2), "mass")
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    _assert_close_to_exact(space.gram_matrix(), want.toarray())
    # two components on the space: every dof pair of an element, the padding of neither
    stand_in = types.SimpleNamespace(Y0=space, Y1=(space, space))  # a complex whose components share one space
    got = assemble_matrix_2d(Vector2D(stand_in), affine_map(1.0, ndim=2), "mass")
    pairs = sp.bmat([[want, want], [want, want]], format="csr")
    assert np.array_equal(got.indptr, pairs.indptr) and np.array_equal(got.indices, pairs.indices)
    _assert_close_to_exact(got.toarray(), sp.block_diag([want, want]).toarray())


@settings(max_examples=30, deadline=None)
@given(refined_tmeshes())
def test_tsplines_reproduce_polynomials_on_random_meshes(case):
    """On an analysis-suitable mesh the T-splines of degree p span every
    x^a y^b with a, b <= p: the least-squares fit of each monomial by
    ``TsplineSpace(M0).basis`` on a grid of more points than functions
    leaves no residual."""
    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    space = TsplineSpace(derive_complex_meshes(raw, p).M0)
    m = math.isqrt(2 * space.dim) + 2  # m^2 > 2 dim points
    g = (np.arange(m) + 1 / 3) / m
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    monomials = np.stack([pts[:, 0] ** a * pts[:, 1] ** b for a in range(p + 1) for b in range(p + 1)], axis=1)
    B = space.basis(pts)
    coeffs = np.linalg.lstsq(B, monomials, rcond=None)[0]
    assert np.max(np.abs(B @ coeffs - monomials)) <= 1e-10


def test_line_index_is_built_once_per_mesh(monkeypatch):
    # anchors, the strong-AS check, extension walks and the derivative
    # blocks of the complex all read one cached index pair per mesh
    import splinecomplex.tmesh as tmesh

    built = []

    class CountingIndex(tmesh._LineIndex):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tmesh, "_LineIndex", CountingIndex)
    cm = derive_complex_meshes(square_raw_tmesh(1), 3)
    meshes = (cm.M0, cm.M11, cm.M12, cm.M2)
    for mesh in meshes:
        mesh.anchors()
        mesh.check_strong_as()
        mesh.compute_extensions()
    build_tspline_complex(cm)
    assert len(built) == 2 * len(meshes)


def _anchor_tables(mesh):
    """Anchor locators and rank arrays as lists, or the error that refuses them."""
    try:
        return [a.tolist() for pair in mesh.anchor_locators for a in pair], [r.tolist() for r in mesh.anchor_ranks]
    except TMeshError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(refined_tmeshes())
def test_derived_meshes_share_line_tables_that_match_a_fresh_build(case):
    """Meshes derived by ``with_segments`` (M11, M12 and M2) and
    ``extended`` rank, locate and tile exactly as the same mesh built from
    scratch.  An axis shares the value table of M0 unless its degree is
    lowered from an even p, whose boundary band loses one copy per end; at
    even p, M11, M12 and M2 are the tiling rendered at their degrees."""
    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    cm = derive_complex_meshes(raw, p)
    derived = (cm.M11, cm.M12, cm.M2)
    for mesh in derived:
        for d in (0, 1):
            assert (mesh.lines[d] is cm.M0.lines[d]) == (p % 2 == 1 or mesh.degrees[d] == p)
        if p % 2 == 0:
            ref = TMesh2D.from_raw(raw, mesh.degrees)
            assert (ref.xs, ref.ys, ref.faces) == (mesh.xs, mesh.ys, mesh.faces)
            npt.assert_array_equal(ref.VE, mesh.VE)
            npt.assert_array_equal(ref.HE, mesh.HE)
            assert _anchor_tables(ref) == _anchor_tables(mesh)
    family = [(m, m.extended()) for m in (cm.M0, *derived)]
    for parent, mesh in family:
        assert all(a is b for a, b in zip(mesh.lines, parent.lines))
        assert all(a is b for a, b in zip(mesh.line_values, parent.line_values))
    for mesh in [*derived, *(ext for _, ext in family)]:
        fresh = TMesh2D(mesh.xs, mesh.ys, mesh.VE, mesh.HE, mesh.degrees)
        assert fresh.lines[0] is not mesh.lines[0] and fresh.line_values == mesh.line_values
        for d in (0, 1):
            npt.assert_array_equal(fresh.lines[d].rank, mesh.lines[d].rank)
            assert fresh.lines[d].bounds == mesh.lines[d].bounds
            assert fresh.line_index[d].hits == mesh.line_index[d].hits
        assert _anchor_tables(fresh) == _anchor_tables(mesh)
        assert fresh.faces == mesh.faces and fresh.positive_faces() == mesh.positive_faces()


@pytest.mark.parametrize("raw", [fig_extensions_raw(), square_raw_tmesh(1)], ids=["fig_extensions", "square_l1"])
def test_face_api_keeps_its_types_and_order(raw):
    # faces are held as one index array; the public views stay lists of int
    # tuples in (j1, i1) order, and the positive faces are the ones that
    # face_is_empty does not flag
    mesh = TMesh2D.from_raw(raw, (2, 2))
    faces = mesh.faces
    assert type(faces) is list and all(type(f) is tuple and len(f) == 4 for f in faces)
    assert all(type(i) is int for f in faces for i in f)
    assert faces == sorted(faces, key=lambda f: (f[1], f[0])) and len(set(faces)) == len(faces)
    empty = [mesh.face_is_empty(f) for f in faces]
    assert all(type(e) is bool for e in empty) and any(empty)  # the doubled boundary lines bound empty faces
    positive = mesh.positive_faces()
    assert type(positive) is list and all(type(f) is tuple for f in positive)
    assert positive == [f for f, e in zip(faces, empty) if not e]
    faces.clear()  # each call hands out a new list
    assert len(mesh.faces) == len(empty)


def _doubled_line_raw(split_to):
    """x = 1/2 runs up from y = 0 to ``split_to`` (1/4 or 1/2) and ends on a
    horizontal line; y = 1/2 is doubled."""
    ys = (F(0), F(1, 4), F(1, 2), F(1))
    if split_to == F(1, 2):  # the cells below y = 1/2 are split into four
        faces = ((0, 2, 2, 3), (0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2), (1, 1, 2, 2))
    else:
        faces = ((0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 2, 2), (0, 2, 2, 3))
    return RawTMesh((F(0), F(1, 2), F(1)), ys, faces, {("y", 2): 2})


@pytest.mark.parametrize(
    "split_to, junction, crossed",
    [
        (F(1, 2), (2, 3, "v"), 3),  # the extension runs on through both copies
        (F(1, 4), (2, 2, "v"), 3),  # the extension ends on the first copy
    ],
)
def test_extension_crossing_a_repeated_line_is_not_strong(split_to, junction, crossed):
    mesh = TMesh2D.from_raw(_doubled_line_raw(split_to), (2, 2))
    assert mesh.is_analysis_suitable()[0]
    ok, (kind, (ext, k)) = mesh.check_strong_as()
    assert not ok and kind == "repeated line crossed"
    assert (ext.junction, k, mesh.ys[k]) == (junction, crossed, F(1, 2))


@pytest.mark.xfail(raises=TMeshError, strict=True, reason="a derivative target whose abscissa is a repeated line has no unique locator")
def test_extension_crossing_a_repeated_line_builds_exact_complex():
    rep = verify_t_exactness(build_tspline_complex(derive_complex_meshes(_doubled_line_raw(F(1, 2)), 2)))
    assert rep.passed and rep.certified


def test_multiplicity_above_the_degree_is_rejected(tmp_path):
    """y = 1/2 doubled at p = 1 is analysis-suitable, but its complex would
    not be exact: the derivation and ``tmesh complex`` refuse it."""
    from splinecomplex.cli import main

    raw = _doubled_line_raw(F(1, 4))
    assert TMesh2D.from_raw(raw, (1, 1)).is_analysis_suitable()[0]
    with pytest.raises(TMeshError, match="interior multiplicity 2 of the y line 1/2 exceeds the degree 1"):
        derive_complex_meshes(raw, 1)
    dump_json(tmesh_to_dict(raw), tmp_path / "doubled.json")
    assert main(["--out", str(tmp_path), "tmesh", "complex", "--mesh", str(tmp_path / "doubled.json"), "--degree", "1"]) == 2


def test_validation_rejects_an_anchor_midpoint_on_a_repeated_line(tmp_path):
    # the right face spans y = 0..1, so its p = 2 anchor sits at y = 1/2,
    # which is doubled: the mesh is analysis-suitable but has no anchor there
    from splinecomplex.cli import main

    half = F(1, 2)
    raw = RawTMesh((0, half, 1), (0, half, 1), ((0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 2, 2)), {("y", 1): 2})
    assert TMesh2D.from_raw(raw, (2, 2)).is_analysis_suitable() == (True, None)
    for reject in (lambda: validate_tmesh(raw, (2, 2)), lambda: derive_complex_meshes(raw, 2)):
        with pytest.raises(TMeshError, match="anchor midpoint lies on the repeated y line 1/2"):
            reject()
    dump_json(tmesh_to_dict(raw), tmp_path / "partial.json")
    assert main(["--out", str(tmp_path), "tmesh", "check", "--mesh", str(tmp_path / "partial.json"), "--degrees", "2,2"]) == 2


def test_zero_width_face_across_three_copies_has_no_anchor():
    # the middle copy of the tripled boundary line x = 0 has no edges, so
    # one zero-width face spans all three copies
    xs = [F(0)] * 3 + [F(1)] * 3
    VE, HE = np.ones((6, 5), dtype=bool), np.ones((5, 6), dtype=bool)
    VE[1] = False
    mesh = TMesh2D(xs, xs, VE, HE, (4, 4))
    assert mesh.faces[0] == (0, 0, 2, 1)
    with pytest.raises(TMeshError, match="^ambiguous zero-width anchor extent$"):
        mesh.anchors()


def test_odd_degree_trace_needs_line_locators():
    mesh = validate_tmesh(uniform_raw(2), (3, 3))
    span = (np.array([1]), np.array([3]))  # the span after line 3
    with pytest.raises(TMeshError, match="^odd-degree anchor must sit on a line$"):
        mesh.line_index[0].trace(*span, (np.array([0]), np.array([0])), 3)


def test_row_codes_tell_rows_apart_beyond_int64():
    from splinecomplex.tmesh import _row_codes

    base = 2**20  # six digits need 120 bits: the codes are renumbered on the way
    rows = np.random.default_rng(0).integers(0, 3, size=(200, 6)) * (base // 3)
    codes = _row_codes(rows, base)
    npt.assert_array_equal(codes[:, None] == codes[None], (rows[:, None] == rows[None]).all(axis=-1))


@settings(max_examples=40, deadline=None)
@given(refined_tmeshes())
def test_rank_arrays_serve_the_space_like_the_anchors(case):
    from splinecomplex.assembly import Scalar2D, traces
    from clamping import is_clamped

    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    for mesh in derive_complex_meshes(raw, p).__dict__.values():
        if not isinstance(mesh, TMesh2D):
            continue
        space = TsplineSpace(mesh)
        anchors = mesh.anchors()
        assert [tuple(map(tuple, r)) for r in zip(*(R.tolist() for R in space.ranks))] == [a.key for a in anchors]
        npt.assert_array_equal(space.key_index(*space.ranks), np.arange(space.dim))
        shifted = [R[::-1] for R in space.ranks]  # the same keys, listed backwards
        npt.assert_array_equal(space.key_index(*shifted), np.arange(space.dim)[::-1])
        missing = [np.full_like(R[:1], R.max() + 1) for R in space.ranks]
        assert space.key_index(*missing).tolist() == [-1]
        for d, rows in enumerate(space.knot_rows):
            lkvs, q = [(a.lkv1, a.lkv2)[d] for a in anchors], mesh.degrees[d]
            npt.assert_array_equal(rows.knots, [[float(t) for t in lkv] for lkv in lkvs])
            for name, (i, j) in (("left", (0, q)), ("right", (1, q + 1)), ("support", (0, q + 1))):
                npt.assert_array_equal(getattr(rows, name), [float(lkv[j] - lkv[i]) for lkv in lkvs])
            for side in (0, 1):
                clamped = [a.index for a in anchors if is_clamped((a.lkv1, a.lkv2)[d], mesh.degrees[d], side)]
                recs = traces(Scalar2D(space), (d, side))
                assert [r[0] for r in recs] == clamped
                assert [r[2] for r in recs] == [((a.lkv1, a.lkv2)[1 - d],) for a in anchors if a.index in clamped]


@settings(max_examples=40, deadline=None)
@given(refined_tmeshes())
def test_t_exactness_merges_both_sequences(case):
    from splinecomplex.complexes import verify_sequence

    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    try:
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
    except TMeshError:
        assume(False)  # the known failure of a crossed repeated line
    chain = list(tcx.dims)
    oi = tcx.operators_int
    primal = verify_sequence([oi["grad"], oi["rot"]], chain)
    starred = verify_sequence([oi["rotvec"], oi["div"]], chain, prefix="*")
    rep = verify_t_exactness(tcx)
    assert rep.ranks == {**primal.ranks, **starred.ranks}
    assert rep.identities == {**primal.identities, **starred.identities, "dimY0+dimY2=dimY1+1": True}
    assert rep.certified == (primal.certified and starred.certified)


@settings(max_examples=100, deadline=None)
@given(refined_tmeshes())
def test_t_spline_constants_are_the_all_ones_vector(case):
    # the constants' only certificate: on every analysis-suitable T-mesh the
    # scalar T-splines are a partition of unity, so grad (and rotvec) of the
    # all-ones vector vanish exactly
    from splinecomplex.exactrank import annihilates

    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    try:
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
    except TMeshError:
        assume(False)  # the known failure of a crossed repeated line
    ones = np.ones(tcx.dims[0], dtype=np.int64)
    assert annihilates(tcx.operators_int["grad"], ones)
    assert annihilates(tcx.operators_int["rotvec"], ones)
    rep = verify_t_exactness(tcx)
    assert rep.identities["d0(const)=0"] and rep.identities["*d0(const)=0"]
