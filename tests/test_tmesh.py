"""T-mesh structure, extensions, analysis-suitability and anchor tracing."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

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
from splinecomplex.serialization import load_json, tmesh_to_dict
from splinecomplex.tmesh import (
    RawTMesh,
    TMesh2D,
    TMeshError,
    TsplineSpace,
    tensor_raw_tmesh,
    validate_tmesh,
)

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
