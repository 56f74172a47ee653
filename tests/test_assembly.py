"""Quadrature, Galerkin matrices, boundary conditions, 3D tensor spaces."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from splinecomplex import assembly
from splinecomplex.assembly import (
    Scalar2D,
    Vector2D,
    assemble_matrix_2d,
    dirichlet_dofs,
    gauss_points_1d,
)
from splinecomplex.benchmarks import cylinder_sector_patches, square_raw_tmesh
from splinecomplex.bspline import KnotVector, eval_local, eval_local_deriv
from splinecomplex.complexes import build_complex
from splinecomplex.geometry import extrude, linear_patch, pullback_weight
from splinecomplex.tmesh import TMesh2D, TsplineSpace, tensor_raw_tmesh
from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

import oracle3d
from oracle3d import Complex3D, Scalar3D, assemble_load_3d, assemble_matrix_3d, hcurl_error_3d

F = Fraction


def uniform_raw(n):
    b = [F(k, n) for k in range(n + 1)]
    return tensor_raw_tmesh(b, b)


def tcx_for(n, p):
    return build_tspline_complex(derive_complex_meshes(uniform_raw(n), p))


def test_gauss_exactness():
    # order q integrates polynomials of degree 2q-1; q = p+1 covers 2p+1
    for p in (1, 2, 3, 4):
        q = p + 1
        pts, w = gauss_points_1d(0.25, 0.75, q)
        for deg in range(2 * p + 2):
            exact = (0.75 ** (deg + 1) - 0.25 ** (deg + 1)) / (deg + 1)
            npt.assert_allclose(np.sum(w * pts**deg), exact, rtol=1e-13)


def exact_gradgrad_1d(kv):
    """Symbolic-integration oracle: exact span polynomials via rational
    Lagrange interpolation of the recursion values, differentiated and
    integrated with Fractions."""
    from tests.test_bspline import cox_de_boor_exact

    p = kv.degree
    ks = kv.knots
    n = kv.n
    K = [[F(0)] * n for _ in range(n)]
    for a, b in kv.spans():
        # sample p+1 points inside the span, interpolate exactly
        nodes = [a + (b - a) * F(k + 1, p + 2) for k in range(p + 1)]
        polys = []
        for i in range(n):
            vals = [cox_de_boor_exact(ks, p, i, x) for x in nodes]
            polys.append(_lagrange_coeffs(nodes, vals))
        for i in range(n):
            di = _poly_derive(polys[i])
            for j in range(n):
                dj = _poly_derive(polys[j])
                K[i][j] += _poly_integrate(_poly_mul(di, dj), a, b)
    return K


def _lagrange_coeffs(xs, ys):
    n = len(xs)
    out = [F(0)] * n
    for i in range(n):
        num = [F(1)]
        den = F(1)
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul(num, [-xs[j], F(1)])
            den *= xs[i] - xs[j]
        for k, c in enumerate(num):
            out[k] += ys[i] * c / den
    return out


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_derive(a):
    return [c * (k + 1) for k, c in enumerate(a[1:])] or [F(0)]


def _poly_integrate(a, lo, hi):
    total = F(0)
    for k, c in enumerate(a):
        total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


def test_gradgrad_1d_matches_symbolic_oracle():
    kv = KnotVector(2, (F(0), F(1, 2), F(1)), (3, 1, 3))
    exact = exact_gradgrad_1d(kv)
    # assembled with the production quadrature utilities
    n = kv.n
    ks = kv.knots
    K = np.zeros((n, n))
    for a, b in kv.spans():
        pts, w = gauss_points_1d(float(a), float(b), kv.degree + 1)
        dv = np.stack(
            [eval_local_deriv(ks[i : i + kv.degree + 2], kv.degree, pts) for i in range(n)],
            axis=1,
        )
        K += dv.T @ (dv * w[:, None])
    npt.assert_allclose(K, np.array([[float(v) for v in row] for row in exact]), atol=1e-13)


def test_mass_row_sums_partition():
    tcx = tcx_for(3, 2)
    sc = Scalar2D(TsplineSpace(tcx.meshes.M0))
    geom = linear_patch(np.eye(2))
    M = assemble_matrix_2d(sc, geom, "mass")
    rs = np.asarray(M.sum(axis=1)).ravel()
    assert np.all(rs > 0)
    npt.assert_allclose(rs.sum(), 1.0, atol=1e-12)  # total = area of the square


def test_mass_spd():
    tcx = tcx_for(3, 2)
    v2 = Vector2D.from_complex(tcx)
    geom = linear_patch(2.0 * np.eye(2))
    M = assemble_matrix_2d(v2, geom, "mass").toarray()
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert w[0] > 0


def test_symmetry():
    tcx = tcx_for(2, 3)
    v2 = Vector2D.from_complex(tcx)
    geom = linear_patch(np.array([[1.2, 0.1], [0.0, 0.8]]))
    for kind in ("mass", "rotrot"):
        A = assemble_matrix_2d(v2, geom, kind)
        assert abs(A - A.T).max() < 1e-13


def test_curlcurl_kernel_contains_gradients():
    p = 2
    tcx = tcx_for(2, p)
    kv_z = KnotVector.uniform(p, 2)
    cx3 = Complex3D(tcx, kv_z)
    geom = extrude(linear_patch(np.eye(2)))
    K = assemble_matrix_3d(cx3, geom, "curlcurl")
    G = cx3.operators()["grad"]
    rng = np.random.default_rng(50)
    c = rng.standard_normal(G.shape[1])
    v = G @ c
    r = np.linalg.norm(K @ v) / max(np.linalg.norm(K.toarray() @ rng.standard_normal(v.size)), 1e-30)
    assert r < 1e-10


def test_3d_dims_and_dd_zero():
    p = 3
    n = 2
    tcx = tcx_for(n, p)
    kv_z = KnotVector.uniform(p, n)
    cx3 = Complex3D(tcx, kv_z)
    dims = cx3.space_dims()
    nz = kv_z.n
    assert dims[1] == tcx.space_dim(1) * nz + tcx.space_dim(0) * (nz - 1)
    # tensor-product horizontal input reproduces the pure B-spline 3D counts
    kv = KnotVector.uniform(p, n)
    bcx = build_complex([kv, kv, kv_z])
    for j in range(4):
        assert dims[j] == bcx.space_dim(j), j
    ops = cx3.operators()
    assert np.abs((ops["curl"] @ ops["grad"])).max() < 1e-14
    assert np.abs((ops["div"] @ ops["curl"])).max() < 1e-14


def test_source_recovers_gradient_field():
    # f chosen so u = grad(x^2 y z) is in the space: recovered to solver accuracy
    p = 2
    tcx = tcx_for(2, p)
    kv_z = KnotVector.uniform(p, 2)
    cx3 = Complex3D(tcx, kv_z)
    geom = extrude(linear_patch(np.eye(2)))
    K = assemble_matrix_3d(cx3, geom, "curlcurl")
    M = assemble_matrix_3d(cx3, geom, "mass")

    u = lambda X: np.column_stack(
        [2 * X[:, 0] * X[:, 1] * X[:, 2], X[:, 0] ** 2 * X[:, 2], X[:, 0] ** 2 * X[:, 1]]
    )
    b = assemble_load_3d(cx3, geom, u)
    from splinecomplex.solvers import solve_source

    x = solve_source((K + M).tocsc(), b)
    curl0 = lambda X: np.zeros((X.shape[0], 3))
    e_l2, e_curl = hcurl_error_3d(cx3, geom, x, u, curl0)
    assert e_l2 < 1e-9 and e_curl < 1e-9


def test_zero_rhs_zero_solution():
    from splinecomplex.solvers import solve_source

    p = 2
    tcx = tcx_for(2, p)
    cx3 = Complex3D(tcx, KnotVector.uniform(p, 1))
    geom = extrude(linear_patch(np.eye(2)))
    A = (assemble_matrix_3d(cx3, geom, "curlcurl") + assemble_matrix_3d(cx3, geom, "mass")).tocsc()
    x = solve_source(A, np.zeros(A.shape[0]))
    assert np.all(x == 0)


def test_dirichlet_counts_3d():
    p = 2
    tcx = tcx_for(2, p)
    cx3 = Complex3D(tcx, KnotVector.uniform(p, 2))
    all_faces = [(a, s) for a in range(3) for s in (0, 1)]
    constrained = dirichlet_dofs(cx3, all_faces)
    # no-tags restriction is the identity
    assert dirichlet_dofs(cx3, []) == []
    assert 0 < len(constrained) < cx3.dim
    # the free space excludes every clamped tangential dof
    dims = cx3.space_dims()
    nz = cx3.kv_z.n
    n2 = tcx.space_dim(0)
    c1 = tcx.Y1[0].dim
    # component 1 (x-directed): clamped at y and z boundaries
    kv = KnotVector.uniform(p, 2)
    n1d = kv.n
    interior_1d = n1d - 2
    expected_c1 = (n1d - 1) * n1d * nz - (n1d - 1) * interior_1d * (nz - 2)
    assert expected_c1 == len([d for d in constrained if d < c1 * nz])


def _lsection_spaces(p, nz=3):
    """The section complex of the level-1 L-section T-mesh at degree p and
    its four space types."""
    from splinecomplex.benchmarks import lsection_raw_tmesh

    tcx = build_tspline_complex(derive_complex_meshes(lsection_raw_tmesh(1, p), p))
    cx3 = Complex3D(tcx, KnotVector.uniform(p, nz))
    return tcx, (Scalar2D(tcx.Y0), Vector2D.from_complex(tcx), Scalar3D(cx3), cx3)


def _face_traces(space, face):
    """Oracle: {dof: (reference component, P, values at P)} of the functions
    whose tangential trace is nonzero at some face point P, the midpoints
    of all mesh intervals of their block along the face axes."""
    from splinecomplex.bspline import scaled_eval

    axis, side = face
    out = {}
    for off, s2d, kvz, zscal, comp in space.blocks():
        lines = [s2d.mesh.xs, s2d.mesh.ys] + ([] if kvz is None else [kvz.breakpoints])
        mids = [(g[1:] + g[:-1]) / 2 for g in (np.unique(np.asarray(v, dtype=float)) for v in lines)]
        mids[axis] = np.array([float(side)])
        P = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1).reshape(-1, len(mids))
        V = s2d.basis(P[:, :2])
        if kvz is not None:  # dof iz * dim + a
            V = (scaled_eval(kvz.local_rows, kvz.degree, zscal, P[:, 2])[:, :, None] * V[:, None, :]).reshape(len(P), -1)
        if comp != axis:  # e_axis is normal to the face
            for i in np.flatnonzero(np.abs(V).max(axis=0) > 1e-12):
                out[off + int(i)] = (comp, P, V[:, i])
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_traces_are_the_functions_nonzero_on_each_face(p):
    from splinecomplex.bspline import scaled_eval

    for space in _lsection_spaces(p)[1]:
        ndim = 2 if isinstance(space, (Scalar2D, Vector2D)) else 3
        for face in [(a, s) for a in range(ndim) for s in (0, 1)]:
            records = assembly.traces(space, face)
            oracle = _face_traces(space, face)
            dofs = [dof for dof, _, _ in records]
            assert sorted(dofs) == sorted(oracle) == dirichlet_dofs(space, [face]), (type(space).__name__, face)
            face_axes = [d for d in range(ndim) if d != face[0]]
            # (degrees, scalings) per parametric axis of the block holding each dof
            kinds = {}
            for off, s2d, kvz, zscal, _ in space.blocks():
                q, s = (s2d.degrees, s2d.scalings) if kvz is None else (s2d.degrees + (kvz.degree,), s2d.scalings + (zscal,))
                kinds.update(dict.fromkeys(range(off, off + s2d.dim * (1 if kvz is None else kvz.n)), (q, s)))
            for dof, c, lkvs in records:
                comp, P, values = oracle[dof]
                assert (None if c is None else face_axes[c]) == comp
                q, s = kinds[dof]
                trace = np.prod([scaled_eval(lkv, q[d], s[d], P[:, d]) for lkv, d in zip(lkvs, face_axes)], axis=0)
                npt.assert_allclose(trace, values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_port_trace_map_is_the_section_at_the_clamped_layer(p):
    # the records of a z-face, in order, are the section's Vector2D dofs
    # times the vertical B-spline clamped there: a port's trace map
    tcx, (*_, cx3) = _lsection_spaces(p)
    n1, n2, nz = tcx.Y1[0].dim, tcx.Y1[1].dim, cx3.nz
    for side, iz in ((0, 0), (1, nz - 1)):
        records = assembly.traces(cx3, (2, side))
        assert [dof for dof, _, _ in records] == [iz * n1 + a for a in range(n1)] + [n1 * nz + iz * n2 + a for a in range(n2)]
        assert [c for _, c, _ in records] == [0] * n1 + [1] * n2


_VECTOR_PAIR = [("Vector2D", "mass"), ("Vector2D", "rotrot")]


@pytest.mark.parametrize("driver", ["square", "lsection", "thick_l", "cylinder", "waveguide"])
def test_each_driver_assembles_its_section_matrices_once(monkeypatch, driver):
    # each driver assembles its section matrices once per patch: the vector
    # mass and rot-rot, and the scalar mass only where a prism needs it (the
    # square cavity does not); the L-section its scalar pair.  The guide's
    # port mode, ports and 3D system share one set.
    from splinecomplex import assembly, problems

    kinds = []

    def counting(space, geom, kind, *args, **kw):
        kinds.append((type(space).__name__, kind))
        return assemble_matrix_2d(space, geom, kind, *args, **kw)

    monkeypatch.setattr(problems, "assemble_matrix_2d", counting)
    monkeypatch.setattr(assembly, "assemble_matrix_2d", counting)
    run, want = {
        "square": (lambda: problems.square_eigenproblem(0, 2), _VECTOR_PAIR),
        "lsection": (lambda: problems.lsection_laplace_eigenproblem(0, 2), [("Scalar2D", "gradgrad")] * 3 + [("Scalar2D", "mass")] * 3),
        "thick_l": (lambda: problems.thick_l_eigenproblem(0, degree=2, count=None), [("Scalar2D", "mass")] * 3 + sorted(_VECTOR_PAIR * 3)),
        "cylinder": (lambda: problems.cylinder_sector_source(0, degree=2, nz=2), [("Scalar2D", "mass")] * 3 + sorted(_VECTOR_PAIR * 3)),
        "waveguide": (problems.waveguide_scattering, [("Scalar2D", "mass"), *_VECTOR_PAIR]),
    }[driver]
    run()
    assert sorted(kinds) == want


def test_zero_measure_elements_skipped():
    # repeated internal knot produces zero-width faces; assembly ignores them
    raw = tensor_raw_tmesh([F(0), F(1, 2), F(1)], [F(0), F(1, 2), F(1)])
    from splinecomplex.tmesh import RawTMesh

    raw2 = RawTMesh(raw.breakpoints_x, raw.breakpoints_y, raw.faces, {("x", 1): 2})
    mesh = TMesh2D.from_raw(raw2, (2, 2))
    sc = Scalar2D(TsplineSpace(mesh))
    geom = linear_patch(np.eye(2))
    M = assemble_matrix_2d(sc, geom, "mass")
    rs = np.asarray(M.sum(axis=1)).ravel()
    npt.assert_allclose(rs.sum(), 1.0, atol=1e-12)


# -- tabulation against a per-anchor oracle ----------------------------------------


def _boxes(mesh):
    """Float boxes of the positive-area faces of the extended mesh."""
    ext = mesh.extended()
    return [
        (float(ext.xs[f[0]]), float(ext.ys[f[1]]), float(ext.xs[f[2]]), float(ext.ys[f[3]]))
        for f in ext.positive_faces()
    ]


def _factor(lkv, degree, scaling, x):
    """Value and derivative of one 1D factor, evaluated on its own."""
    from splinecomplex.bspline import scaled_eval

    return scaled_eval(lkv, degree, scaling, x, 0), scaled_eval(lkv, degree, scaling, x, 1)


def _overlaps(lo, hi, a, b):
    return float(lo) < b and float(hi) > a


def _per_anchor_dofs_2d(space, order):
    """Reference tables: every function of a Scalar2D or Vector2D space
    evaluated on its own at the Gauss points of every element it is active
    on.

    Yields (P, W, [(dof, value (npts, c), derivative (npts, c'))]) per
    element; the derivative is the grad (Scalar2D) or the rot (Vector2D).
    """
    comps = [(space.space, 0)] if isinstance(space, Scalar2D) else [(space.c1, 0), (space.c2, space.c1.dim)]
    for x1, y1, x2, y2 in _boxes(comps[0][0].mesh):
        P, W = _rule_2d((x1, y1, x2, y2), order)
        dofs = []
        for m, (S, off) in enumerate(comps):
            (p1, p2), (s1, s2) = S.degrees, S.scalings
            for a in S.anchors:
                lo1, hi1, lo2, hi2 = a.support
                if not (_overlaps(lo1, hi1, x1, x2) and _overlaps(lo2, hi2, y1, y2)):
                    continue
                (fx, gx), (fy, gy) = _factor(a.lkv1, p1, s1, P[:, 0]), _factor(a.lkv2, p2, s2, P[:, 1])
                if isinstance(space, Scalar2D):
                    dofs.append((a.index, (fx * fy)[:, None], np.column_stack([gx * fy, fx * gy])))
                    continue
                val = np.zeros((len(W), 2))
                val[:, m] = fx * fy
                rot = -fx * gy if m == 0 else gx * fy
                dofs.append((off + a.index, val, rot[:, None]))
        yield P, W, dofs


def _per_anchor_dofs_3d(cx3, order):
    """Reference tables: every X1 function evaluated on its own at the
    tensor Gauss points of every element it is active on.

    Yields (P, W, [(dof, value (npts, 3), curl (npts, 3))]) per element.
    """
    for x1, y1, x2, y2 in _boxes(cx3.tcx.meshes.M0):
        for za, zb in ((float(a), float(b)) for a, b in cx3.kv_z.spans()):
            pts2, w2 = _rule_2d((x1, y1, x2, y2), order)
            pz, wz = gauss_points_1d(za, zb, order)
            P = np.array([[x, y, z] for x, y in pts2 for z in pz])
            W = np.array([a * b for a in w2 for b in wz])
            dofs = []
            for off, s2d, kvz, zscal, m in cx3.blocks():
                (p1, p2), (s1, s2) = s2d.degrees, s2d.scalings
                q, ks = kvz.degree, kvz.knots
                for a in s2d.anchors:
                    lo1, hi1, lo2, hi2 = a.support
                    if not (_overlaps(lo1, hi1, x1, x2) and _overlaps(lo2, hi2, y1, y2)):
                        continue
                    (fx, gx), (fy, gy) = _factor(a.lkv1, p1, s1, P[:, 0]), _factor(a.lkv2, p2, s2, P[:, 1])
                    for iz in range(kvz.n):
                        lz = ks[iz : iz + q + 2]
                        if not _overlaps(lz[0], lz[-1], za, zb):
                            continue
                        fz, gz = _factor(lz, q, zscal, P[:, 2])
                        f, dx, dy, dz = fx * fy * fz, gx * fy * fz, fx * gy * fz, fx * fy * gz
                        val = np.zeros((len(W), 3))
                        val[:, m] = f
                        zero = np.zeros_like(f)
                        curl = np.column_stack(
                            [(zero, -dz, dy)[m], (dz, zero, -dx)[m], (-dy, dx, zero)[m]]
                        )
                        dofs.append((off + iz * s2d.dim + a.index, val, curl))
            yield P, W, dofs


def _push(j, J, det, v):
    """Physical values of reference degree-j values v (npts, c), written out
    point by point: j=0 as is, j=1 J^-T v, j=2 in 3D J v / det J, the top
    form v / det J."""
    ndim = J.shape[-1]
    if j == 0:
        return v
    if j == ndim:
        return v / det[:, None]
    if j == 1:
        return np.array([np.linalg.solve(Jp.T, vp) for Jp, vp in zip(J, v)])
    return np.array([Jp @ vp / dp for Jp, dp, vp in zip(J, det, v)])


def _oracle_matrices(cells, geom, n, j):
    """Mass and derivative matrices of per-anchor cells: each function is
    pushed forward on its own (values as degree-j forms, derivatives as
    degree j+1) and every pair is integrated in physical coordinates."""
    M, K = np.zeros((n, n)), np.zeros((n, n))
    for P, W, dofs in cells:
        J, det = geom.jacobian_dets(P)
        idx = [i for i, _, _ in dofs]
        U = np.array([_push(j, J, det, v) for _, v, _ in dofs])
        C = np.array([_push(j + 1, J, det, d) for _, _, d in dofs])
        M[np.ix_(idx, idx)] += np.einsum("apk,bpk,p->ab", U, U, W * det)
        K[np.ix_(idx, idx)] += np.einsum("apk,bpk,p->ab", C, C, W * det)
    return M, K


def _rel(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


def test_2d_matrices_match_per_anchor_oracle():
    # a curved NURBS map: J is not normal, so J^-1 J^-T and J^-T J^-1 differ
    from tests.test_geometry import quarter_annulus

    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(0), 2))
    geom = quarter_annulus()
    spaces = (
        (Scalar2D(TsplineSpace(tcx.meshes.M0)), 0, "gradgrad"),
        (Vector2D.from_complex(tcx), 1, "rotrot"),
    )
    for space, j, deriv_kind in spaces:
        M, K = _oracle_matrices(_per_anchor_dofs_2d(space, 3), geom, space.dim, j)
        assert _rel(assemble_matrix_2d(space, geom, "mass").toarray(), M) < 1e-12
        assert _rel(assemble_matrix_2d(space, geom, deriv_kind).toarray(), K) < 1e-12


def test_3d_tables_match_per_anchor_oracle():
    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(0), 2))
    cx3 = Complex3D(tcx, KnotVector.uniform(2, 2))
    # the per-anchor tables do not depend on the geometry: built once for both
    cells = [list(_per_anchor_dofs_3d(cx3, order)) for order in (3, 4)]
    # an affine prism and a degenerate NURBS cylinder slice
    for geom in (extrude(linear_patch([[1.0, 0.3], [-0.2, 0.8]])), extrude(cylinder_sector_patches()[0])):
        _check_3d_against_oracle(cx3, geom, *cells)


def _check_3d_against_oracle(cx3, geom, cells3, cells4):
    n = cx3.dim
    f = lambda X: np.column_stack([np.sin(X[:, 2]), X[:, 0] * X[:, 1], np.cos(X[:, 0])])
    coeffs = np.random.default_rng(7).standard_normal(n)

    M, K = _oracle_matrices(cells3, geom, n, 1)
    b = np.zeros(n)
    e_l2 = e_curl = 0.0
    for P, W, dofs in cells4:
        J, det = geom.jacobian_dets(P)
        X = geom.eval(P)
        u_h, c_h = np.zeros((len(W), 3)), np.zeros((len(W), 3))
        for i, vi, ci in dofs:
            ui = _push(1, J, det, vi)
            b[i] += np.sum(W * det * np.sum(f(X) * ui, axis=1))
            u_h += coeffs[i] * ui
            c_h += coeffs[i] * _push(2, J, det, ci)
        e_l2 += np.sum(W * det * np.sum((u_h - f(X)) ** 2, axis=1))
        e_curl += np.sum(W * det * np.sum((c_h - f(X)) ** 2, axis=1))

    assert _rel(assemble_matrix_3d(cx3, geom, "mass").toarray(), M) < 1e-12
    assert _rel(assemble_matrix_3d(cx3, geom, "curlcurl").toarray(), K) < 1e-12
    assert _rel(assemble_load_3d(cx3, geom, f), b) < 1e-12
    err = hcurl_error_3d(cx3, geom, coeffs, f, f)
    assert _rel(np.array(err), np.sqrt([e_l2, e_curl])) < 1e-12


# -- the per-patch record and the shared pattern ---------------------------------


def _rule_2d(box, order):
    """Tensor Gauss rule of one box, x index slowest."""
    px, wx = gauss_points_1d(box[0], box[2], order)
    py, wy = gauss_points_1d(box[1], box[3], order)
    return np.array([[x, y] for x in px for y in py]), np.array([a * b for a in wx for b in wy])


def _rule_3d(box, zspan, order):
    """Tensor Gauss rule of one 3D cell, 2D point slowest, z fastest."""
    P2, W2 = _rule_2d(box, order)
    pz, wz = gauss_points_1d(*zspan, order)
    return np.array([[*xy, z] for xy in P2 for z in pz]), np.array([a * b for a in W2 for b in wz])


def _cells_2d(space, deriv, order):
    """Per element, its rule and its dof row and table (ndof, npts, c)
    without the padding: the component tables set into their components,
    zeros elsewhere."""
    idx, comps = assembly._space_tables(space, order, deriv)
    T = np.zeros((*idx.shape, comps[0][1].shape[2], len(comps)))
    for c, (start, V) in enumerate(comps):
        T[:, start : start + V.shape[1], :, c] = V
    for box, i, t in zip(space.elements(), idx, T):
        yield (*_rule_2d(box, order), i[i >= 0], t[i >= 0])


def _cells_3d(cx3, order):
    """Per cell of the per-anchor oracle: its rule, checked against
    :func:`_rule_3d`, its dofs and their value and curl tables (ndof, npts, 3)."""
    boxes = cx3.tcx.Y0.elements
    zspans = [(float(a), float(b)) for a, b in cx3.kv_z.spans()]
    cells = list(_per_anchor_dofs_3d(cx3, order))
    assert len(cells) == len(boxes) * len(zspans)
    for k, (P, W, dofs) in enumerate(cells):
        Pk, Wk = _rule_3d(boxes[k // len(zspans)], zspans[k % len(zspans)], order)
        npt.assert_allclose(P, Pk, rtol=0, atol=1e-15)
        npt.assert_allclose(W, Wk, rtol=1e-14)
        yield P, W, np.array([i for i, _, _ in dofs]), np.array([v for _, v, _ in dofs]), np.array([c for _, _, c in dofs])


def _coo_sum(cells, geom, j, n):
    """A plain COO sum of the element kernels sum_q T_q W_q T_q^T, with J
    and det J evaluated per element and the duplicates summed by scipy."""
    rows, cols, vals = [], [], []
    for P, W, idx, T in cells:
        J, det = geom.jacobian_dets(P)
        block = np.einsum("aqi,qij,bqj->ab", T, pullback_weight(j, J, det, W), T)
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(block.ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()


def _frob_rel(A, B):
    return sp.linalg.norm(A - B) / sp.linalg.norm(B)


def test_2d_matrices_match_coo_sum_of_element_kernels():
    from tests.test_geometry import quarter_annulus

    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(1), 3))
    geom = quarter_annulus()
    for space, j in ((Scalar2D(TsplineSpace(tcx.meshes.M0)), 0), (Vector2D.from_complex(tcx), 1)):
        for kind in ("mass", assembly._FORMS[type(space)][1]):
            deriv = kind != "mass"
            A = assemble_matrix_2d(space, geom, kind)
            assert _frob_rel(A, _coo_sum(_cells_2d(space, deriv, 4), geom, j + deriv, space.dim)) < 1e-14


def test_3d_patches_share_one_pattern_and_match_coo_sum():
    from splinecomplex.benchmarks import cylinder_section_raw_tmesh

    tcx = build_tspline_complex(derive_complex_meshes(cylinder_section_raw_tmesh(1), 2))
    cx3 = Complex3D(tcx, KnotVector.uniform(2, 2))
    n = cx3.dim
    cells = list(_cells_3d(cx3, 3))
    with assembly._shared_patterns():
        for geom in map(extrude, cylinder_sector_patches()):
            for kind, j in (("mass", 1), ("curlcurl", 2)):
                A = assemble_matrix_3d(cx3, geom, kind)
                tables = [(P, W, idx, C if kind != "mass" else V) for P, W, idx, V, C in cells]
                assert _frob_rel(A, _coo_sum(tables, geom, j, n)) < 1e-14
        assert len(assembly._PATTERNS) == 1
    assert assembly._PATTERNS is None


def test_patch_record_matches_per_element_geometry():
    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(1), 2))
    cx3 = Complex3D(tcx, KnotVector.uniform(2, 2))
    geom = extrude(cylinder_sector_patches()[1])
    P, W = oracle3d._rules_3d(cx3, 4)
    J, det = geom.jacobian_dets(P.reshape(-1, 3))
    J, det = J.reshape(*P.shape, 3), det.reshape(W.shape)
    boxes = tcx.Y0.elements
    zspans = [(float(a), float(b)) for a, b in cx3.kv_z.spans()]
    nelem = len(P) // len(zspans)
    assert nelem == len(boxes) and len(P) == nelem * len(zspans)
    for k, (e, s) in enumerate((e, s) for e in range(nelem) for s in range(len(zspans))):
        Pk, Wk = _rule_3d(boxes[e], zspans[s], 4)
        npt.assert_array_equal(P[k], Pk)
        npt.assert_array_equal(W[k], Wk)
        Jk, detk = geom.jacobian_dets(Pk)
        npt.assert_allclose(J[k], Jk, rtol=1e-14, atol=1e-15)
        npt.assert_allclose(det[k], detk, rtol=1e-14)


def test_geometry_is_evaluated_once_per_patch_and_rule(monkeypatch):
    # the jacobian_dets calls of a whole solve do not grow with the elements:
    # the cylinder's matrices are evaluated on the 2D section maps (three
    # patches, three kinds), and its load and error once per section on the
    # 2D points of their rule; no 3D map is evaluated or contracted
    from splinecomplex import problems
    from splinecomplex.geometry import GeometryMap

    original, contract = GeometryMap.eval_jacobian_dets, GeometryMap._contract
    points, contracted = [], []

    def counting(self, pts):
        points.append((self.ndim, len(pts)))
        return original(self, pts)

    def counting_contract(self, pts):
        contracted.append(self.ndim)
        return contract(self, pts)

    monkeypatch.setattr(GeometryMap, "eval_jacobian_dets", counting)
    monkeypatch.setattr(GeometryMap, "_contract", counting_contract)
    calls, total, contractions = [], [], []
    for level in (0, 1):
        points.clear()
        contracted.clear()
        problems.cylinder_sector_source(level, degree=1, nz=1)
        calls.append([sum(d == ndim for d, _ in points) for ndim in (2, 3)])
        total.append(sum(n for _, n in points))
        contractions.append(contracted.count(3))
    assert calls[0] == calls[1] == [12, 0], calls
    assert contractions == [0, 0], contractions
    assert total[1] > total[0]


def test_patches_on_one_space_share_its_element_tables(monkeypatch):
    # the three cylinder sections share one Vector2D: each T-spline space of
    # a space key is tabulated in one batched call per rule and derivative
    # per solve, not per patch or per element
    from splinecomplex import problems

    original, shared, built = TsplineSpace.element_tables, assembly._space_tables, []

    def counting(self, order, *tables):
        built.append((self, order, tables))
        return original(self, order, *tables)

    def unshared(space, order, deriv):
        with monkeypatch.context() as m:
            m.setattr(assembly, "_TABLES", None)
            return shared(space, order, deriv)

    monkeypatch.setattr(TsplineSpace, "element_tables", counting)
    ref = problems.cylinder_sector_source(1, nz=2)
    assert len(built) == len(set(built)) > 0
    monkeypatch.setattr(assembly, "_space_tables", unshared)
    monkeypatch.setattr(problems, "_space_tables", unshared)
    assert problems.cylinder_sector_source(1, nz=2) == ref  # unshared tables, same numbers


def test_geometry_tabulates_each_direction_on_its_distinct_abscissae(monkeypatch):
    # Cox-de Boor sees the distinct abscissae of the rule per direction, not
    # every quadrature point of every cell
    from splinecomplex import geometry

    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(1), 2))
    cx3 = Complex3D(tcx, KnotVector.uniform(2, 3))
    geom = extrude(cylinder_sector_patches()[0])
    seen = []

    def counting(f):
        def wrapped(kv, x):
            seen.append(len(x))
            return f(kv, x)

        return wrapped

    for name in ("eval_basis", "eval_basis_deriv"):
        monkeypatch.setattr(geometry, name, counting(getattr(geometry, name)))
    assemble_matrix_3d(cx3, geom, "mass")
    P, _ = oracle3d._rules_3d(cx3, 3)
    distinct = [np.unique(P[..., d]).size for d in range(3)]
    assert seen == [n for n in distinct for _ in range(2)]
    assert sum(seen) < P.shape[0] * P.shape[1] / 10


def test_factor_tables_evaluate_each_distinct_factor_once(monkeypatch):
    # on square L3 p=3 Cox-de Boor runs once per distinct (element span,
    # local knot vector) of a direction, values and derivatives, not once
    # per (span, anchor) pair with overlapping support
    from splinecomplex import tmesh

    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(3), 3))
    original, seen = tmesh.scaled_eval, []

    def counting(rows, *args):
        seen.append(len(rows))
        return original(rows, *args)

    monkeypatch.setattr(tmesh, "scaled_eval", counting)
    for space, distinct, pairs in ((tcx.Y1[0], (96, 400), (2640, 6816)), (tcx.Y1[1], (128, 304), (3360, 5328))):
        seen.clear()
        space.factor_tables(4)
        assert seen == [n for n in distinct for _ in range(2)]
        for d in (0, 1):
            ivs = np.unique(space.elements[:, [d, d + 2]], axis=0)
            knots = space.knot_rows[d].knots
            assert np.sum((knots[:, 0] < ivs[:, 1:]) & (knots[:, -1] > ivs[:, :1])) == pairs[d]


def test_pattern_slots_match_a_search_per_element():
    # one search over all element keys gives the slots of one search per element
    from splinecomplex.benchmarks import cylinder_section_raw_tmesh

    tcx = build_tspline_complex(derive_complex_meshes(cylinder_section_raw_tmesh(1), 2))
    for space in (Vector2D.from_complex(tcx), Complex3D(tcx, KnotVector.uniform(2, 3))):
        n = space.dim
        if isinstance(space, Vector2D):
            rows = assembly._space_tables(space, 3, False)[0]
        else:
            rows = oracle3d._cell_tables(space, 3)[0]
        indptr, indices, slot = assembly._pattern(space, n, rows)
        flat = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
        dofs = [d[d >= 0] for d in rows]
        sizes = np.array([d.size for d in dofs])
        expected, ends = np.empty((sizes**2).sum(), dtype=np.intp), np.cumsum(sizes**2)
        for d, end in zip(dofs, ends):
            expected[end - d.size**2 : end] = np.searchsorted(flat, (d[:, None] * n + d[None, :]).ravel())
        assert np.array_equal(slot, expected)
