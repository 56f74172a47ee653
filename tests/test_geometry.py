"""Geometry maps, pullbacks and control complexes."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from splinecomplex.bspline import KnotVector, eval_basis, eval_basis_deriv, insert_knot
from splinecomplex.complexes import build_complex
from splinecomplex.geometry import (
    GeometryMap,
    affine_map,
    apply_pullback,
    apply_pushforward,
    build_control_complex,
    control_distance,
    extrude,
    linear_patch,
    pullback,
)

F = Fraction


def quarter_annulus(r_in=1.0, r_out=2.0) -> GeometryMap:
    """Exact NURBS quarter annulus: linear radially, rational arc in angle."""
    kv_r = KnotVector.uniform(1, 1)
    kv_t = KnotVector.uniform(2, 1)
    w = np.sqrt(2) / 2
    arc = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cp = np.vstack([r_in * arc, r_out * arc])
    # direction 1 (radius) fastest: interleave
    cp = cp.reshape(2, 3, 2).transpose(1, 0, 2).reshape(-1, 2)
    weights = np.array([1.0, 1.0, w, w, 1.0, 1.0])
    return GeometryMap((kv_r, kv_t), cp, weights)


def test_identity_map():
    geo = affine_map(1.0, ndim=3)
    pts = np.random.default_rng(0).uniform(0, 1, size=(10, 3))
    npt.assert_allclose(geo.eval(pts), pts, atol=1e-14)
    J, det = geo.jacobian_dets(pts)
    npt.assert_allclose(J, np.broadcast_to(np.eye(3), (10, 3, 3)), atol=1e-14)
    npt.assert_allclose(det, 1.0)


def test_quarter_annulus_midpoint():
    geo = quarter_annulus(1.0, 2.0)
    mid = geo.eval([[0.5, 0.5]])[0]
    r = np.linalg.norm(mid)
    theta = np.arctan2(mid[1], mid[0])
    npt.assert_allclose(r, 1.5, atol=1e-13)
    npt.assert_allclose(theta, np.pi / 4, atol=1e-13)
    # the arc stays on circles: radius is constant along direction 2
    pts = np.column_stack([np.full(9, 0.25), np.linspace(0, 1, 9)])
    radii = np.linalg.norm(geo.eval(pts), axis=1)
    npt.assert_allclose(radii, 1.25, atol=1e-13)


def test_jacobian_vs_finite_differences():
    geo = quarter_annulus()
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, size=(12, 2))
    J = geo.jacobian(pts)
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (geo.eval(pts + e) - geo.eval(pts - e)) / (2 * h)
        npt.assert_allclose(J[:, :, d], fd, rtol=2e-6, atol=2e-6)


def test_weight_denominator_positive():
    geo = quarter_annulus()
    xs = np.linspace(0, 1, 32)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    B = np.ones((pts.shape[0], 6))
    vals1 = eval_basis(geo.kvs[0], pts[:, 0])
    vals2 = eval_basis(geo.kvs[1], pts[:, 1])
    B = (vals1[:, None, :] * vals2[:, :, None]).reshape(pts.shape[0], -1)
    den = B @ geo.weights
    assert np.all(den > 0)


def test_pullback_pushforward_roundtrip():
    geo = quarter_annulus()
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(15, 2))
    J, det = geo.jacobian_dets(pts)
    for j in (1, 2):
        v = rng.standard_normal((15, 2))
        hat = apply_pullback(j, J, det, v)
        back = apply_pushforward(j, J, det, hat)
        npt.assert_allclose(back, v, atol=1e-10)
    s = rng.standard_normal(15)
    npt.assert_allclose(apply_pushforward(3, J, det, apply_pullback(3, J, det, s)), s, atol=1e-12)


def test_pullback_identity_on_identity_map():
    geo = affine_map(1.0, ndim=2)
    f = lambda x: np.sin(x[:, 0]) * np.cos(x[:, 1])
    hat = pullback(geo, 0, f)
    pts = np.random.default_rng(3).uniform(0, 1, size=(8, 2))
    npt.assert_allclose(hat(pts), f(pts), atol=1e-14)


def _fd_grad(fhat, pts, h=1e-5):
    out = np.zeros((pts.shape[0], pts.shape[1]))
    for d in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[d] = h
        fp = fhat(pts + e)
        fm = fhat(pts - e)
        fp2 = fhat(pts + 2 * e)
        fm2 = fhat(pts - 2 * e)
        out[:, d] = (8 * (fp - fm) - (fp2 - fm2)) / (12 * h)
    return out


def test_commuting_diagram_grad_2d():
    # iota1(grad phi) equals the parametric gradient of iota0(phi)
    geo = quarter_annulus()
    phi = lambda x: np.sin(x[:, 0] + 0.3) * np.cos(2 * x[:, 1])
    grad_phi = lambda x: np.column_stack(
        [np.cos(x[:, 0] + 0.3) * np.cos(2 * x[:, 1]), -2 * np.sin(x[:, 0] + 0.3) * np.sin(2 * x[:, 1])]
    )
    hat0 = pullback(geo, 0, phi)
    hat1 = pullback(geo, 1, grad_phi)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    lhs = hat1(pts)
    rhs = _fd_grad(hat0, pts)
    scale = np.abs(lhs).max()
    npt.assert_allclose(rhs, lhs, atol=1e-8 * max(scale, 1.0))


def test_commuting_diagram_curl_3d():
    # iota2(curl u) equals the parametric curl of iota1(u)
    geo = affine_map([1.3, 0.7, 1.1], ndim=3)
    u = lambda x: np.column_stack(
        [np.sin(x[:, 1]), x[:, 2] ** 2 * np.cos(x[:, 0]), x[:, 0] * x[:, 1]]
    )
    curl_u = lambda x: np.column_stack(
        [x[:, 0] - 2 * x[:, 2] * np.cos(x[:, 0]), -x[:, 1], -x[:, 2] ** 2 * np.sin(x[:, 0]) - np.cos(x[:, 1])]
    )
    hat1 = pullback(geo, 1, u)
    hat2 = pullback(geo, 2, curl_u)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, 0.9, size=(10, 3))
    h = 1e-5

    def dcomp(f, comp, axis, p):
        e = np.zeros(3)
        e[axis] = h
        return (8 * (f(p + e)[:, comp] - f(p - e)[:, comp]) - (f(p + 2 * e)[:, comp] - f(p - 2 * e)[:, comp])) / (12 * h)

    curl_hat = np.column_stack(
        [
            dcomp(hat1, 2, 1, pts) - dcomp(hat1, 1, 2, pts),
            dcomp(hat1, 0, 2, pts) - dcomp(hat1, 2, 0, pts),
            dcomp(hat1, 1, 0, pts) - dcomp(hat1, 0, 1, pts),
        ]
    )
    lhs = hat2(pts)
    npt.assert_allclose(curl_hat, lhs, atol=1e-8 * max(np.abs(lhs).max(), 1.0))


def test_integral_preservation_j3():
    # integral of iota3(phi) over the parametric domain equals that of phi
    from numpy.polynomial.legendre import leggauss

    geo = quarter_annulus(1.0, 2.0)
    phi = lambda x: x[:, 0] ** 2 + 1.0
    hat3 = pullback(geo, 3, phi)
    gx, gw = leggauss(24)
    x = 0.5 * (gx + 1)
    w = 0.5 * gw
    P = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    W = np.outer(w, w).ravel()
    lhs = float(W @ hat3(P))
    # same integral computed in physical coordinates through the mapping
    Jp, detp = geo.jacobian_dets(P)
    rhs = float(W @ (phi(geo.eval(P)) * detp))
    npt.assert_allclose(lhs, rhs, rtol=1e-12)
    # analytic check: integral over the quarter annulus
    import scipy.integrate as si

    exact = si.quad(lambda r: r * (np.pi / 2), 1, 2)[0] + si.quad(
        lambda r: r**3, 1, 2
    )[0] * si.quad(lambda t: np.cos(t) ** 2, 0, np.pi / 2)[0]
    npt.assert_allclose(lhs, exact, rtol=1e-10)


def test_singular_jacobian_reported():
    # collapsed-edge map: one whole edge maps to a point
    kv = KnotVector.uniform(1, 1)
    cp = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    geo = GeometryMap((kv, kv), cp)
    with pytest.raises(ValueError, match="singular Jacobian"):
        geo.jacobian_dets([[0.0, 0.5]])


def test_singular_guard_is_relative_to_the_scale():
    # a 10 micron cube is regular: |det J| is compared with the column norms
    J, det = affine_map(1e-5, ndim=3).jacobian_dets([[0.5, 0.5, 0.5]])
    npt.assert_allclose(det, 1e-15, rtol=1e-12)
    npt.assert_allclose(J[0], 1e-5 * np.eye(3), rtol=1e-12)


def _warped_map(ndim, rational):
    """A spline or NURBS map with interior knots, a perturbed identity."""
    kvs = (KnotVector.uniform(2, 3), KnotVector(3, (F(0), F(1, 4), F(1, 2), F(1)), (4, 1, 2, 4)), KnotVector.uniform(1, 2))[:ndim]
    grev = [np.array([float(g) for g in kv.greville()]) for kv in kvs]
    cp = np.stack([g.reshape(-1, order="F") for g in np.meshgrid(*grev, indexing="ij")], axis=1)
    rng = np.random.default_rng(ndim + 10 * rational)
    cp = cp + 0.02 * rng.standard_normal(cp.shape)
    weights = rng.uniform(0.7, 1.3, len(cp)) if rational else None
    return GeometryMap(kvs, cp, weights)


def _dense_oracle(geo, P):
    """X and J from the dense (npts, ncp) tensor of all basis functions at
    every point, direction 1 fastest."""

    def tensor(tables):
        out = tables[0]
        for t in tables[1:]:
            out = (out[:, None, :] * t[:, :, None]).reshape(len(P), -1)
        return out

    vals = [eval_basis(kv, P[:, d]) for d, kv in enumerate(geo.kvs)]
    ders = [eval_basis_deriv(kv, P[:, d]) for d, kv in enumerate(geo.kvs)]
    w = np.ones(len(geo.control_points)) if geo.weights is None else geo.weights
    B = tensor(vals) * w
    X = (B @ geo.control_points) / B.sum(axis=1)[:, None]
    J = np.empty((len(P), geo.nphys, geo.ndim))
    for d in range(geo.ndim):
        dB = tensor([ders[k] if k == d else vals[k] for k in range(geo.ndim)]) * w
        J[:, :, d] = (dB @ geo.control_points - X * dB.sum(axis=1)[:, None]) / B.sum(axis=1)[:, None]
    return X, J


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("rational", [False, True], ids=["spline", "NURBS"])
def test_per_direction_tabulation_matches_pointwise_evaluation(ndim, rational):
    """Scattered points, not a tensor grid, with coordinates at 0, 1 and
    interior knots: X and J, tabulated on the distinct abscissae, agree
    with the pointwise dense evaluation."""
    geo = _warped_map(ndim, rational)
    rng = np.random.default_rng(20 + ndim)
    P = rng.uniform(0, 1, size=(60, ndim))
    P[:30] = rng.choice([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0], size=(30, ndim))
    X, J, det = geo.eval_jacobian_dets(P)
    Xo, Jo = _dense_oracle(geo, P)
    assert np.abs(X - Xo).max() <= 1e-14 * np.abs(Xo).max()
    assert np.abs(J - Jo).max() <= 1e-14 * np.abs(Jo).max()
    assert np.array_equal(X, geo.eval(P)) and np.array_equal(J, geo.jacobian(P))
    npt.assert_allclose(det, np.linalg.det(Jo), rtol=1e-13)


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("rational", [False, True], ids=["spline", "NURBS"])
@pytest.mark.parametrize("bad", [-1e-9, 1 + 1e-9], ids=["below0", "above1"])
def test_points_outside_the_parametric_domain_are_rejected(ndim, rational, bad):
    """One coordinate below 0 or above 1, in any direction, among valid
    points: every evaluation entry point raises instead of extrapolating."""
    geo = _warped_map(ndim, rational)
    for d in range(ndim):
        P = np.full((3, ndim), 0.5)
        P[1, d] = bad
        for evaluate in (geo.eval, geo.jacobian_dets, geo.eval_jacobian_dets):
            with pytest.raises(ValueError, match="outside"):
                evaluate(P)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_inverse_and_determinant(n):
    """The cofactor inverse and determinant against LAPACK on random
    Jacobians: the determinant as the geometry reports it for x = A zeta,
    the inverse through the pullbacks that use it."""
    from splinecomplex.geometry import _adjugate, pullback_weight

    rng = np.random.default_rng(n)
    J = rng.standard_normal((50, n, n)) + 2 * np.eye(n)
    det = np.array([linear_patch(A).jacobian_dets(np.full((1, n), 0.5))[1][0] for A in J])
    npt.assert_allclose(det, np.linalg.det(J), rtol=1e-13)
    inv = np.linalg.inv(J)
    rel = lambda a, b: np.abs(a - b).max() / np.abs(b).max()
    assert rel(_adjugate(J) / det[:, None, None], inv) < 1e-13
    v, w = rng.standard_normal((50, n)), rng.uniform(0.5, 1, 50)
    assert rel(apply_pushforward(1, J, det, v), np.einsum("pji,pj->pi", inv, v)) < 1e-13
    assert rel(pullback_weight(1, J, det, w), inv @ inv.transpose(0, 2, 1) * (w * det)[:, None, None]) < 1e-13
    if n == 3:
        assert rel(apply_pullback(2, J, det, v), det[:, None] * np.einsum("pij,pj->pi", inv, v)) < 1e-13


@pytest.mark.parametrize("section", ["affine", "NURBS"])
def test_extrude_is_the_section_times_z(section):
    """extrude(F) maps (x, y, z) to (F(x, y), z): its Jacobian is
    blockdiag(J2, 1) and its determinant the section's.  On an affine
    section x = A2 zeta + b2 its control net is, exactly, that of the 3D
    linear patch of [[A2, 0], [0, 1]] and (b2, 0)."""
    from splinecomplex.benchmarks import cylinder_sector_patches

    A2, b2 = np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([0.4, -1.5])
    sec = linear_patch(A2, b2) if section == "affine" else cylinder_sector_patches()[1]
    geo = extrude(sec)
    assert geo.kvs == (*sec.kvs, KnotVector.uniform(1, 1)) and geo.nphys == 3
    P = np.random.default_rng(11).uniform(0.05, 1, size=(40, 3))
    X, J, det = geo.eval_jacobian_dets(P)
    X2, J2, det2 = sec.eval_jacobian_dets(P[:, :2])
    npt.assert_allclose(X, np.column_stack([X2, P[:, 2]]), rtol=0, atol=1e-14)
    block = np.zeros((len(P), 3, 3))
    block[:, :2, :2], block[:, 2, 2] = J2, 1.0
    npt.assert_allclose(J, block, rtol=0, atol=1e-14)
    npt.assert_allclose(det, det2, rtol=1e-14)
    if section == "affine":
        A = np.eye(3)
        A[:2, :2] = A2
        prism = linear_patch(A, np.r_[b2, 0.0])
        assert geo.kvs == prism.kvs and geo.weights is None
        assert np.array_equal(geo.control_points, prism.control_points)
    else:
        assert np.array_equal(geo.weights, np.tile(sec.weights, 2))


def test_evaluations_are_fresh_and_maps_key_by_identity():
    # eval_jacobian_dets keeps nothing: each call returns its own writeable
    # arrays; a map compares and hashes by identity, so it can key a dict
    geo = quarter_annulus()
    P = np.random.default_rng(7).uniform(0.1, 0.9, size=(20, 2))
    first, second = geo.eval_jacobian_dets(P), geo.eval_jacobian_dets(P.copy())
    for a, b in zip(first, second):
        assert a is not b and not np.shares_memory(a, b) and a.flags.writeable
        npt.assert_array_equal(a, b)
    twin = GeometryMap(geo.kvs, geo.control_points, geo.weights)
    assert geo == geo and geo != twin and hash(geo) == hash(geo)
    assert {geo: 1, twin: 2}[geo] == 1
    other = geo.eval_jacobian_dets(P[::-1])
    npt.assert_allclose(other[1], first[1][::-1], rtol=1e-15, atol=1e-15)


def test_control_complex_dims_and_operators():
    kv = KnotVector.uniform(3, 3)
    cx = build_complex([kv, kv, kv])
    # geometry on the same knot vectors as the complex
    grev = [np.array([float(g) for g in k.greville()]) for k in (kv, kv, kv)]
    grids = np.meshgrid(*grev, indexing="ij")
    cp = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    geo = GeometryMap((kv, kv, kv), cp)
    cc = build_control_complex(geo, cx)
    for j in (0, 1, 2, 3):
        assert cc.complex.space_dim(j) == cx.space_dim(j)
    for name in ("grad", "curl", "div"):
        assert (cc.complex.operators[name] - cx.operators[name]).nnz == 0
    # F_C interpolates the control points at the Greville sites
    sites = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    npt.assert_allclose(cc.control_map(sites), cp, atol=1e-13)


def test_control_complex_p1_coincides():
    kv = KnotVector.uniform(1, 4)
    cx = build_complex([kv, kv])
    grev = [np.array([float(g) for g in kv.greville()])] * 2
    grids = np.meshgrid(*grev, indexing="ij")
    cp = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    geo = GeometryMap((kv, kv), cp)
    cc = build_control_complex(geo, cx)
    pts = np.random.default_rng(6).uniform(0, 1, size=(30, 2))
    npt.assert_allclose(cc.control_map(pts), geo.eval(pts), atol=1e-13)


def test_control_distance_identity_and_affine():
    geo = affine_map([2.0, 3.0], offset=[1.0, -1.0], ndim=2)
    assert control_distance(geo, 100) < 1e-13


def fit_circle_arc(p=3, nspans=4) -> GeometryMap:
    """Interpolate a quarter circle arc at the Greville sites."""
    kv = KnotVector.uniform(p, nspans)
    g = np.array([float(x) for x in kv.greville()])
    target = np.column_stack([np.cos(g * np.pi / 2), np.sin(g * np.pi / 2)])
    A = eval_basis(kv, g)
    cp = np.linalg.solve(A, target)
    return GeometryMap((kv,), cp)


def test_control_polygon_h2_convergence():
    geo = fit_circle_arc()
    dists = [control_distance(geo, 200)]
    kv = geo.kvs[0]
    cp = geo.control_points
    for _ in range(2):
        for b in list(zip(kv.breakpoints, kv.breakpoints[1:])):
            mid = (b[0] + b[1]) / 2
            kv, cp = insert_knot(kv, cp, mid)
        geo = GeometryMap((kv,), cp)
        dists.append(control_distance(geo, 200))
    r1 = dists[0] / dists[1]
    r2 = dists[1] / dists[2]
    assert 3.2 <= r1 <= 4.8, dists
    assert 3.2 <= r2 <= 4.8, dists
