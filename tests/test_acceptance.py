"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Reference values marked as coming from the eigenvalue table of
the square benchmark are frozen below.
"""

import math
import time
from fractions import Fraction

import numpy as np
import numpy.testing as npt

from splinecomplex.benchmarks import (
    crossing_extensions_raw,
    cylinder_section_raw_tmesh,
    fig_extensions_raw,
    fig_local_kv_raw,
    square_raw_tmesh,
    two_t_raw,
)
from splinecomplex.bspline import KnotVector
from splinecomplex.complexes import build_complex, entity_correspondence, verify_exactness
from splinecomplex.tmesh import TMesh2D, validate_tmesh
from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes, verify_t_exactness

F = Fraction

SQUARE_TABLE_L0 = [
    1.00001, 1.00005, 2.00016, 4.00396, 4.03882, 5.00395, 5.10164,
    8.05454, 9.06255, 9.12399, 10.0614, 10.2361, 12.8159, 13.2002,
    17.9413, 19.8934, 19.9586, 20.8937, 21.4707, 24.0689, 26.1844,
]
LSHAPE_LAMBDA1 = 9.63972384472


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _round_sig(x, sig=5):
    if x == 0:
        return 0.0
    from math import floor, log10

    return round(x, -int(floor(log10(abs(x)))) + sig - 1)


def test_criterion_1_square_table():
    from splinecomplex.problems import square_eigenproblem

    t0 = time.time()
    run0 = square_eigenproblem(0)
    t_l0 = time.time() - t0
    assert run0.dofs == 74
    assert run0.result.zero_count == 21
    computed = run0.result.nonzero[:21]
    for c, t in zip(computed, SQUARE_TABLE_L0):
        ok = _round_sig(float(c)) == _round_sig(t) or abs(c - t) / t < 2e-6
        assert ok, (c, t)
    assert t_l0 < 30.0

    t0 = time.time()
    run1 = square_eigenproblem(1)
    t_l1 = time.time() - t0
    assert run1.dofs == 184
    assert run1.result.zero_count == 65
    mode20 = float(run1.result.nonzero[3])
    assert abs(mode20 - 4.00004) <= 5e-5
    assert t_l1 < 30.0
    _report(1, f"square table reproduced (74/184 dofs, zeros 21/65, (2,0)={mode20:.5f}; {t_l0:.1f}s/{t_l1:.1f}s)")


def test_criterion_2_multiplicities_no_spurious():
    # primary reading: p=4 and p=5 on the 768-element (third refinement) mesh
    from splinecomplex.problems import square_eigenproblem

    exact_below_10 = {1: 2, 2: 1, 4: 2, 5: 2, 8: 1, 9: 2}
    sizes = {}
    for p in (4, 5):
        run = square_eigenproblem(3, degree=p)
        nz = np.asarray(run.result.nonzero)
        below = nz[nz < 9.5]
        for value, mult in exact_below_10.items():
            close = np.sum(np.abs(below - value) < 1e-3)
            assert close == mult, (p, value, close)
        # no spurious values: everything below 9.5 sits in some cluster
        for v in below:
            assert min(abs(v - t) for t in exact_below_10) < 1e-3, (p, v)
        sizes[p] = run.dofs
    _report(2, f"no spurious modes, exact multiplicities at p=4 ({sizes[4]} dofs) and p=5 ({sizes[5]} dofs)")


def test_criterion_3_exactness_randomized():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    checked = 0
    while checked < 20:
        d = 2 if checked % 2 == 0 else 3
        kvs = []
        for _ in range(d):
            p = int(rng.integers(2, 5))
            spans = int(rng.integers(2, 8 - p)) if p < 6 else 2
            spans = max(1, min(spans, 7 - p))
            cuts = sorted(rng.choice(np.arange(1, 16), size=max(spans - 1, 0), replace=False))
            bp = [F(0)] + [F(int(c), 16) for c in cuts] + [F(1)]
            mult = [p + 1] + [int(rng.integers(1, p + 1)) for _ in cuts] + [p + 1]
            kvs.append(KnotVector(p, tuple(bp), tuple(mult)))
        cx = build_complex(kvs)
        if max(cx.dims) > 1200:
            continue
        rep = verify_exactness(cx)
        assert rep.passed and rep.certified, rep.identities
        if d == 3:
            assert (cx.operators["curl"] @ cx.operators["grad"]).nnz == 0
            assert (cx.operators["div"] @ cx.operators["curl"]).nnz == 0
        else:
            assert (cx.operators["rot"] @ cx.operators["grad"]).nnz == 0
            assert (cx.operators["div"] @ cx.operators["rotvec"]).nnz == 0
        checked += 1
    dt = time.time() - t0
    assert dt < 60.0
    _report(3, f"20 randomized tensor complexes, all rank identities certified exactly ({dt:.1f}s)")


def test_criterion_4_incidence_structure():
    rng = np.random.default_rng(77)
    done = 0
    while done < 10:
        p = int(rng.integers(1, 5))
        d = 2 if done % 2 == 0 else 3
        kvs = []
        for _ in range(d):
            spans = int(rng.integers(2, 5))
            cuts = sorted(rng.choice(np.arange(1, 12), size=spans - 1, replace=False))
            bp = [F(0)] + [F(int(c), 12) for c in cuts] + [F(1)]
            mult = [p + 1] + [int(rng.integers(1, p + 1)) for _ in cuts] + [p + 1]
            kvs.append(KnotVector(p, tuple(bp), tuple(mult)))
        cx = build_complex(kvs)
        rep = entity_correspondence(cx)
        assert rep.applicable and rep.passed, (p, d, rep.bijections, rep.operator_matches)
        done += 1
    _report(4, "Dgrad equals the mesh incidence matrix on 10 odd/even fixtures (zero-measure entities included)")


def test_criterion_5_tmesh_suite():
    mesh = validate_tmesh(fig_local_kv_raw(), (2, 3))
    got = {(a.lkv1, a.lkv2) for a in mesh.anchors()}
    a1 = ((F(0), F(0), F(1, 6), F(2, 6)), (F(0), F(0), F(0), F(1, 6), F(2, 6)))
    a2 = ((F(3, 6), F(4, 6), F(5, 6), F(1)), (F(0), F(2, 6), F(3, 6), F(4, 6), F(5, 6)))
    assert a1 in got and a2 in got

    fx = validate_tmesh(fig_extensions_raw(), (2, 3))
    exts = {e.orientation: e for e in fx.compute_extensions()}
    assert (fx.xs[exts["h"].full_range[0]], fx.xs[exts["h"].full_range[1]]) == (F(1, 3), F(5, 6))
    assert (fx.ys[exts["v"].full_range[0]], fx.ys[exts["v"].full_range[1]]) == (F(1, 3), F(5, 6))
    assert (exts["h"].face_bays, exts["h"].edge_bays) == (1, 1)
    assert (exts["v"].face_bays, exts["v"].edge_bays) == (2, 1)

    fixtures = [
        (fig_local_kv_raw(), (2, 3)),
        (fig_extensions_raw(), (2, 3)),
        (crossing_extensions_raw(), (3, 3)),
        (two_t_raw(), (2, 2)),
        (square_raw_tmesh(0), (3, 3)),
        (square_raw_tmesh(1), (4, 4)),
        (cylinder_section_raw_tmesh(1), (3, 3)),
        (cylinder_section_raw_tmesh(2), (2, 2)),
    ]
    for raw, degs in fixtures:
        assert validate_tmesh(raw, degs).euler()

    bad = validate_tmesh(crossing_extensions_raw(), (3, 3))
    ok, pair = bad.is_analysis_suitable()
    assert not ok and pair is not None
    assert not bad.check_strong_as()[0]
    good = validate_tmesh(two_t_raw(), (2, 2))
    assert good.is_analysis_suitable()[0] and not good.check_strong_as()[0]
    _report(5, "figure local knot vectors and extensions reproduced; Euler identity and AS verdicts correct")


def test_criterion_6_tspline_complex_suite():
    fixtures = [
        (square_raw_tmesh(0), 2),
        (square_raw_tmesh(0), 3),
        (square_raw_tmesh(0), 4),
        (square_raw_tmesh(1), 3),
        (cylinder_section_raw_tmesh(1), 2),
        (cylinder_section_raw_tmesh(1), 3),
        (cylinder_section_raw_tmesh(2), 2),
        (cylinder_section_raw_tmesh(2), 3),
        (fig_local_kv_raw(), 2),
        (fig_extensions_raw(), 2),
        (two_t_raw(), 2),
    ]
    for raw, p in fixtures:
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
        assert tcx.space_dim(0) + tcx.space_dim(2) == tcx.space_dim(1) + 1, (p,)
        rep = verify_t_exactness(tcx)
        assert rep.passed and rep.certified, (p, rep.identities)
    # tensor input reduces bit-for-bit to the B-spline path
    from splinecomplex.tmesh import tensor_raw_tmesh

    b = [F(k, 3) for k in range(4)]
    for p in (2, 3):
        tcx = build_tspline_complex(derive_complex_meshes(tensor_raw_tmesh(b, b), p))
        kv = KnotVector(p, tuple(b), (p + 1, 1, 1, p + 1))
        bcx = build_complex([kv, kv])
        for name in ("grad", "rot", "rotvec", "div"):
            assert tcx.denominators[name] == 1
            assert (tcx.operators_int[name] - bcx.operators[name]).nnz == 0
    _report(6, "dimension formula and certified rank identities on the benchmark mesh and 10 AS fixtures; tensor bit-equality")


def test_criterion_7_numerical_checks():
    from splinecomplex.bspline import derivative_decomposition, scaled_eval, insert_knot, eval_basis
    from splinecomplex.geometry import GeometryMap, control_distance, pullback

    # derivative decomposition vs central differences, relative 1e-6
    kv = KnotVector(3, (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), (4, 1, 2, 1, 4))
    ks = kv.knots
    rng = np.random.default_rng(7)
    pts = np.array([x for x in rng.uniform(0.02, 0.98, 60) if min(abs(x - float(b)) for b in kv.breakpoints) > 1e-2][:20])
    h = 1e-6
    for i in range(kv.n):
        local = ks[i : i + kv.degree + 2]
        vals = np.zeros(pts.size)
        for lkv, coeff in derivative_decomposition(local, kv.degree):
            if lkv is not None:
                vals += float(coeff) * scaled_eval(lkv, kv.degree - 1, "B", pts)
        fd = (scaled_eval(local, kv.degree, "B", pts + h) - scaled_eval(local, kv.degree, "B", pts - h)) / (2 * h)
        scale = max(np.abs(fd).max(), 1.0)
        npt.assert_allclose(vals, fd, atol=1e-6 * scale)

    # commuting pullback diagram sampled at 20 points, relative 1e-8
    from tests.test_geometry import quarter_annulus, _fd_grad

    geo = quarter_annulus()
    phi = lambda x: np.sin(x[:, 0] + 0.3) * np.cos(2 * x[:, 1])
    gphi = lambda x: np.column_stack(
        [np.cos(x[:, 0] + 0.3) * np.cos(2 * x[:, 1]), -2 * np.sin(x[:, 0] + 0.3) * np.sin(2 * x[:, 1])]
    )
    hat0 = pullback(geo, 0, phi)
    hat1 = pullback(geo, 1, gphi)
    sample = np.random.default_rng(8).uniform(0.1, 0.9, size=(20, 2))
    lhs = hat1(sample)
    rhs = _fd_grad(hat0, sample)
    npt.assert_allclose(rhs, lhs, atol=1e-8 * max(np.abs(lhs).max(), 1.0))

    # knot-insertion curve invariance at 1e-12
    kv2 = KnotVector.uniform(3, 2)
    coeffs = np.random.default_rng(9).standard_normal(kv2.n)
    kv3, c3 = insert_knot(kv2, coeffs, F(1, 3))
    xs = np.linspace(0, 1, 100)
    npt.assert_allclose(eval_basis(kv3, xs) @ c3, eval_basis(kv2, xs) @ coeffs, atol=1e-12)

    # control polygon O(h^2): ratios within [3.2, 4.8] over two dyadic sweeps
    from tests.test_geometry import fit_circle_arc

    geo1 = fit_circle_arc()
    dists = [control_distance(geo1, 200)]
    kv_c, cp = geo1.kvs[0], geo1.control_points
    for _ in range(2):
        for a, b in list(zip(kv_c.breakpoints, kv_c.breakpoints[1:])):
            kv_c, cp = insert_knot(kv_c, cp, (a + b) / 2)
        dists.append(control_distance(GeometryMap((kv_c,), cp), 200))
    r1, r2 = dists[0] / dists[1], dists[1] / dists[2]
    assert 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8, dists
    _report(7, f"derivative FD, commuting pullbacks, insertion invariance, control-polygon ratios ({r1:.2f}, {r2:.2f})")


def test_criterion_8_lsection_eigenvalue():
    # the L-membrane value of the 2D section, which the thick L's spectrum
    # contains (test_solvers.py, test_thick_l_tm_family_is_the_l_membrane_spectrum);
    # the 3D thick L itself is checked at levels 0-2 in test_solvers.py
    # (test_thick_l_converges_at_levels_0_to_2)
    from splinecomplex.problems import lsection_laplace_eigenproblem

    gaps = []
    lam2 = None
    for level in (0, 1, 2):
        run = lsection_laplace_eigenproblem(level, 4)
        lam = float(run.result.values[0])
        gaps.append(lam - LSHAPE_LAMBDA1)
        if level == 2:
            lam2 = lam
    assert gaps[0] > gaps[1] > gaps[2] > 0, gaps
    rel = abs(lam2 - LSHAPE_LAMBDA1) / LSHAPE_LAMBDA1
    assert rel < 1e-3, rel
    _report(8, f"L-section first eigenvalue {lam2:.8f} within {rel:.2e} of {LSHAPE_LAMBDA1}; gaps decrease {gaps}")


def test_criterion_9_cylinder_sector():
    from splinecomplex.problems import cylinder_sector_source

    runs = [cylinder_sector_source(level) for level in (0, 1, 2)]
    errs = [r[2] for r in runs]
    assert errs[0] > errs[1] > errs[2], errs
    dofs_b, _, err_b = cylinder_sector_source(2, tensor=True)
    assert runs[2][2] <= err_b * 1.05
    assert runs[2][0] < dofs_b
    _report(
        9,
        f"H(curl) errors {['%.4f' % e for e in errs]} monotone; T-splines reach the"
        f" finest B-spline error ({err_b:.4f}) with {runs[2][0]} < {dofs_b} dofs",
    )


def test_criterion_10_waveguide():
    from splinecomplex.problems import waveguide_scattering

    res = waveguide_scattering()
    assert abs(res["R"]) < 0.01
    assert abs(abs(res["T"]) - 1.0) < 0.01

    # port cutoff at its own (finer) section resolution, its exact kernel deflated
    from splinecomplex.assembly import Vector2D
    from splinecomplex.benchmarks import square_geometry
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.problems import ALL_FACES_2D, _section_matrices
    from splinecomplex.solvers import solve_port_mode
    from splinecomplex.tmesh import tensor_raw_tmesh

    n, p = 6, 3
    b = [F(k, n) for k in range(n + 1)]
    tcx = build_tspline_complex(derive_complex_meshes(tensor_raw_tmesh(b, b), p))
    ps = PatchSet([square_geometry()], [Vector2D(tcx)])
    (K2, M2, _, G), _, _ = _section_matrices(ps, {0: ALL_FACES_2D})
    k2, _ = solve_port_mode(K2, M2, G)
    assert abs(k2 - 1.0) <= 1e-6, k2
    _report(10, f"|R|={abs(res['R']):.2e}, |T|={abs(res['T']):.6f}, port k10^2={k2:.8f}")
