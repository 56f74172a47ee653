"""Quadrature, Galerkin matrices, boundary conditions, 3D tensor spaces."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from splinecomplex.assembly import (
    Complex3D,
    Scalar2D,
    Vector2D,
    assemble_load_3d,
    assemble_matrix_2d,
    assemble_matrix_3d,
    assemble_port_boundary,
    dirichlet_dofs,
    gauss_points_1d,
    gauss_points_2d,
    hcurl_error_3d,
)
from splinecomplex.benchmarks import cylinder_sector_patches, linear_patch, prism_patch, square_raw_tmesh
from splinecomplex.bspline import KnotVector, eval_local, eval_local_deriv
from splinecomplex.complexes import build_complex
from splinecomplex.tmesh import TMesh2D, TsplineSpace, tensor_raw_tmesh
from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

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
    geom = prism_patch(np.eye(2))
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
    geom = prism_patch(np.eye(2))
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
    geom = prism_patch(np.eye(2))
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
    assert 0 < len(constrained) < cx3.x1_dim()
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


def test_port_boundary_matrix():
    p = 2
    tcx = tcx_for(3, p)
    cx3 = Complex3D(tcx, KnotVector.uniform(p, 2))
    from splinecomplex.benchmarks import square_geometry

    M2 = assemble_matrix_2d(Vector2D.from_complex(tcx), square_geometry(), "mass")
    B, tmap = assemble_port_boundary(cx3, M2, 0)
    Bd = B.toarray()
    assert abs(Bd - Bd.T).max() < 1e-13
    w = np.linalg.eigvalsh(0.5 * (Bd + Bd.T))
    assert w[0] > -1e-12  # positive semidefinite Gram of tangential traces
    # zero incident field gives a zero load by construction
    assert B.shape == (cx3.x1_dim(), cx3.x1_dim())


def test_waveguide_assembles_section_mass_once(monkeypatch):
    # the port mode and both port boundaries share one section mass matrix
    from splinecomplex import assembly, problems

    kinds = []

    def counting(space, geom, kind, *args, **kw):
        kinds.append(kind)
        return assemble_matrix_2d(space, geom, kind, *args, **kw)

    monkeypatch.setattr(problems, "assemble_matrix_2d", counting)
    monkeypatch.setattr(assembly, "assemble_matrix_2d", counting)
    problems.waveguide_scattering()
    assert sorted(kinds) == ["mass", "rotrot"]


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
        P, W = gauss_points_2d((x1, y1, x2, y2), order)
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
    offs = cx3.x1_offsets()
    for x1, y1, x2, y2 in _boxes(cx3.tcx.meshes.M0):
        for za, zb in ((float(a), float(b)) for a, b in cx3.kv_z.spans()):
            pts2, w2 = gauss_points_2d((x1, y1, x2, y2), order)
            pz, wz = gauss_points_1d(za, zb, order)
            P = np.array([[x, y, z] for x, y in pts2 for z in pz])
            W = np.array([a * b for a in w2 for b in wz])
            dofs = []
            for m, (s2d, kvz, zscal) in enumerate(cx3.x1_blocks()):
                (p1, p2), (s1, s2) = s2d.degrees, s2d.scalings
                q, ks = kvz.degree, kvz.knots
                for a in s2d.anchors:
                    lo1, hi1, lo2, hi2 = a.support
                    if not (_overlaps(lo1, hi1, x1, x2) and _overlaps(lo2, hi2, y1, y2)):
                        continue
                    for iz in range(kvz.n):
                        lz = ks[iz : iz + q + 2]
                        if not _overlaps(lz[0], lz[-1], za, zb):
                            continue
                        (fx, gx), (fy, gy) = _factor(a.lkv1, p1, s1, P[:, 0]), _factor(a.lkv2, p2, s2, P[:, 1])
                        fz, gz = _factor(lz, q, zscal, P[:, 2])
                        f, dx, dy, dz = fx * fy * fz, gx * fy * fz, fx * gy * fz, fx * fy * gz
                        val = np.zeros((len(W), 3))
                        val[:, m] = f
                        zero = np.zeros_like(f)
                        curl = np.column_stack(
                            [(zero, -dz, dy)[m], (dz, zero, -dx)[m], (-dy, dx, zero)[m]]
                        )
                        dofs.append((offs[m] + iz * s2d.dim + a.index, val, curl))
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
    # an affine prism and a degenerate NURBS cylinder slice
    for geom in (prism_patch(np.array([[1.0, 0.3], [-0.2, 0.8]])), cylinder_sector_patches()[0]):
        _check_3d_against_oracle(cx3, geom)


def _check_3d_against_oracle(cx3, geom):
    n = cx3.x1_dim()
    f = lambda X: np.column_stack([np.sin(X[:, 2]), X[:, 0] * X[:, 1], np.cos(X[:, 0])])
    coeffs = np.random.default_rng(7).standard_normal(n)

    M, K = _oracle_matrices(_per_anchor_dofs_3d(cx3, 3), geom, n, 1)
    b = np.zeros(n)
    e_l2 = e_curl = 0.0
    for P, W, dofs in _per_anchor_dofs_3d(cx3, 4):
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
