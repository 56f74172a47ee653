"""Eigensolvers, port modes, scattering formulas."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given, settings

from splinecomplex.solvers import (
    EigenResult,
    NumericalError,
    compute_scattering,
    solve_generalized_eig,
    solve_port_mode,
    solve_source,
)

from oracle3d import Complex3D, assemble_load_3d, gradient_kernel, hcurl_error_3d, system_3d
from test_tmesh import refined_tmeshes


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def incidence_kernel(rng, n, m):
    """An n x m incidence kernel: each row an edge between two of m nodes
    and a ground node m, scaled; the first m rows are a path from the
    ground through every node, the others random edges (a loop is a zero
    row)."""
    ends = np.vstack([np.c_[np.arange(m), np.r_[m, np.arange(m - 1)]], rng.integers(0, m + 1, (n - m, 2))])
    G = np.zeros((n, m + 1))
    for row, (a, b) in enumerate(ends):
        scale = rng.uniform(0.5, 2.0)
        G[row, a] += scale
        G[row, b] -= scale
    return G[:, :m]


def test_generalized_eig_basic():
    rng = np.random.default_rng(60)
    n = 30
    M = random_spd(rng, n)
    G = incidence_kernel(rng, n, 5)
    N = sla.null_space(G.T)
    K = N @ N.T  # rank n-5, K G = 0: five zero eigenvalues
    res = solve_generalized_eig(K, M, G, vectors=True)
    assert res.zero_count == 5
    assert np.all(np.diff(res.values) >= -1e-12)
    assert np.all(res.residuals(K, M) < 1e-8)
    npt.assert_allclose(res.nonzero, sla.eigh(K, M, eigvals_only=True)[5:], rtol=1e-10, atol=0)


def test_eigenvalues_invariant_under_permutation():
    rng = np.random.default_rng(61)
    n = 25
    M = random_spd(rng, n)
    K = random_spd(rng, n) - 0.5 * np.eye(n)
    K = K @ K.T
    empty = np.zeros((n, 0))  # K is SPD
    w1 = solve_generalized_eig(K, M, empty).values
    p = rng.permutation(n)
    w2 = solve_generalized_eig(K[np.ix_(p, p)], M[np.ix_(p, p)], empty).values
    npt.assert_allclose(w1, w2, rtol=1e-10, atol=1e-10)


def test_not_spd_rejected():
    K = np.eye(3)
    M = -np.eye(3)
    with pytest.raises(ValueError, match="positive definite"):
        solve_generalized_eig(K, M, np.zeros((3, 0)))


def test_solve_source_residual_guard():
    rng = np.random.default_rng(62)
    A = random_spd(rng, 12)
    b = rng.standard_normal(12)
    for M in (A, sp.csc_matrix(A), sp.csc_matrix(A.astype(complex))):  # dense, sparse SPD, complex
        x = solve_source(M, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10
    # an exactly singular sparse factor is a numerical failure, not NaNs
    with pytest.raises(NumericalError):
        solve_source(sp.csc_matrix(np.ones((2, 2))), np.array([1.0, 0.0]))
    with pytest.raises(NumericalError):  # and so is a singular complex one
        solve_source(sp.csc_matrix(np.ones((2, 2)) + 0j), np.array([1.0, 0.0]))


def test_solve_source_residual_guard_after_a_successful_factorization():
    # splu factors the SPD Q diag(1, 1e-12) Q^T, Q a rotation by 0.5 rad, but
    # its solution leaves a relative residual |r|/|b| of 2.92e-06
    c, s = np.cos(0.5), np.sin(0.5)
    Q = np.array([[c, -s], [s, c]])
    with pytest.raises(NumericalError, match=r"residual 2\.92e-06 exceeds 1e-10"):
        solve_source(sp.csc_matrix(Q @ np.diag([1.0, 1e-12]) @ Q.T), np.array([1.0, 0.3]))


def test_port_mode_rectangle():
    # analytic TE10 cutoff: k10^2 = (pi/a)^2 on (0,a)x(0,b), a > b
    from fractions import Fraction as F

    from splinecomplex import problems
    from splinecomplex.assembly import Vector2D
    from splinecomplex.geometry import linear_patch
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tmesh import tensor_raw_tmesh
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    n, p = 6, 3
    b = [F(k, n) for k in range(n + 1)]
    tcx = build_tspline_complex(derive_complex_meshes(tensor_raw_tmesh(b, b), p))
    ps = PatchSet([linear_patch(np.diag([2.0, 1.0]))], [Vector2D.from_complex(tcx)])
    (K, M, _, G), _, _ = problems._section_matrices(ps, {0: problems.ALL_FACES_2D})
    k2, e = solve_port_mode(K.toarray(), M.toarray(), G)
    npt.assert_allclose(k2, (np.pi / 2.0) ** 2, rtol=1e-6)
    # deterministic sign: the largest-magnitude component is positive
    assert e[np.argmax(np.abs(e))] > 0


def test_scattering_formula_zero_field():
    beta = 0.7
    z1, z2 = 0.25, 1.5
    R, T = compute_scattering(0.0, 0.0, 1.0, beta, z1, z2)
    npt.assert_allclose(R, -np.exp(-2j * beta * z1))
    npt.assert_allclose(T, 0.0)
    with pytest.raises(ValueError):
        compute_scattering(1.0, 1.0, 0.0, beta, z1, z2)


def test_scattering_pure_travelling_wave():
    # I1 = e^{-i beta z1} * norm, I2 = e^{-i beta z2} * norm: R = 0, T = 1
    beta, z1, z2 = 0.9, 0.0, 1.0
    norm = 2.3
    I1 = np.exp(-1j * beta * z1) * norm
    I2 = np.exp(-1j * beta * z2) * norm
    R, T = compute_scattering(I1, I2, norm, beta, z1, z2)
    npt.assert_allclose(R, 0.0, atol=1e-15)
    npt.assert_allclose(T, 1.0, atol=1e-15)


def test_count_keeps_nonzero_values_after_zero_block():
    from splinecomplex.problems import thick_l_eigenproblem

    # nz=2 gives interior vertical functions, hence a nonempty zero block
    full = thick_l_eigenproblem(0, degree=1, nz=2, count=None).result
    run = thick_l_eigenproblem(0, degree=1, nz=2, count=5).result
    assert run.zero_count == full.zero_count > 0
    assert run.nonzero.size == 5
    assert np.array_equal(run.values, full.values[: full.zero_count + 5])


def test_numerical_failures_are_numerical_errors():
    from splinecomplex.solvers import NumericalError

    with pytest.raises(NumericalError, match="positive definite"):
        solve_generalized_eig(np.eye(3), -np.eye(3), np.zeros((3, 0)))


def test_an_empty_deflated_port_pencil_is_a_numerical_error():
    # a kernel that spans the whole space leaves no nonzero eigenvalue
    with pytest.raises(NumericalError, match="deflated port pencil is empty"):
        solve_port_mode(np.zeros((4, 4)), np.eye(4), np.eye(4))


def _thick_l_prisms(p, nz):
    """The L0 thick L as three glued Complex3D prisms, with PEC side walls
    and lids: (PatchSet, walls), the assembled 3D path."""
    from splinecomplex import problems
    from splinecomplex.benchmarks import LSECTION_INTERFACES, lsection_patches, lsection_raw_tmesh
    from splinecomplex.bspline import KnotVector
    from splinecomplex.geometry import extrude
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    tcx = build_tspline_complex(derive_complex_meshes(lsection_raw_tmesh(0, p), p))
    cx3 = Complex3D(tcx, KnotVector.uniform(p, nz))
    ps = PatchSet([extrude(g) for g in lsection_patches()], [cx3] * 3, LSECTION_INTERFACES)
    walls = {k: faces + [(2, 0), (2, 1)] for k, faces in problems._L_WALLS.items()}
    return ps, walls


def _pencil_and_kernel(problem, level=1):
    """(K, M, G) of the square p=3 (at ``level``) or thick L0 p=2 Maxwell
    problem, on its free dofs, with the exact gradient kernel the drivers
    deflate."""
    from splinecomplex import problems
    from splinecomplex.assembly import Vector2D
    from splinecomplex.benchmarks import square_geometry, square_raw_tmesh
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    if problem == "square":
        tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(level), 3))
        ps = PatchSet([square_geometry()], [Vector2D.from_complex(tcx)])
        walls, kinds, system = {0: problems.ALL_FACES_2D}, ("rotrot", "mass"), problems._system
    else:
        ps, walls = _thick_l_prisms(2, 2)
        kinds, system = ("curlcurl", "mass"), system_3d
    glue, (K, M), free = system(ps, walls, kinds)
    G = gradient_kernel(ps, glue, walls, free)
    sub = np.ix_(free, free)
    return K[sub], M[sub], G


@pytest.mark.parametrize("problem", ["square", "thick_l"])
def test_deflated_spectrum_matches_full_solve(problem):
    # the oracle: SciPy's eigh of the whole dense pencil, whose m smallest
    # values are the kernel's float zeros
    K, M, G = _pencil_and_kernel(problem)
    m = G.shape[1]
    full = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    res = solve_generalized_eig(K, M, kernel=G)
    assert res.zero_count == m == np.sum(full < 1e-8 * full[-1]) > 0
    assert np.array_equal(res.values[:m], np.zeros(m))
    npt.assert_allclose(res.nonzero, full[m:], rtol=1e-10, atol=0)


def test_deflated_vectors_are_eigenpairs():
    """Lifted deflated eigenvectors solve the full pencil and are
    M-orthonormal; the zero block holds the kernel columns."""
    K, M, G = _pencil_and_kernel("square")
    res = solve_generalized_eig(K, M, vectors=True, kernel=G)
    m = G.shape[1]
    assert res.vectors.shape == (K.shape[0], K.shape[0])
    assert np.array_equal(res.vectors[:, :m], G.toarray())
    assert np.all(res.residuals(K, M) < 1e-10)
    V = res.vectors[:, m:]
    npt.assert_allclose(V.T @ (M @ V), np.eye(V.shape[1]), atol=1e-10)
    # whole component blocks of the mode vanish in exact arithmetic, so
    # only a sign rule that reads no roundoff gives the port mode and the
    # full dense pencil's eigenvector (the oracle) one sign
    k2, e = solve_port_mode(K, M, kernel=G)
    w, X = sla.eigh(K.toarray(), M.toarray())
    e_full = X[:, m] * np.sign(X[np.argmax(np.abs(X[:, m])), m])
    npt.assert_allclose(k2, w[m], rtol=1e-10)
    npt.assert_allclose(e @ (M @ e_full), 1.0, rtol=1e-10)


def test_residuals_match_per_pair_loop():
    # pairs that are not eigenpairs, so the residuals are far above roundoff
    rng = np.random.default_rng(63)
    M = random_spd(rng, 12)
    K = sp.csr_matrix(random_spd(rng, 12))
    res = EigenResult(np.sort(rng.uniform(0.0, 5.0, 12)), 0, rng.standard_normal((12, 12)))
    lam_max = max(np.abs(res.values).max(), 1.0)
    want = [np.linalg.norm(K @ v - lam * (M @ v)) / (np.linalg.norm(v) * lam_max) for lam, v in zip(res.values, res.vectors.T)]
    npt.assert_allclose(res.residuals(K, M), want, rtol=1e-12, atol=1e-300)


def test_wrong_kernels_are_numerical_errors():
    K, M, G = _pencil_and_kernel("square")
    G = G.toarray()
    # a column that is not a gradient: K does not annihilate it
    bad = G.copy()
    bad[:, 0] = np.random.default_rng(64).standard_normal(G.shape[0])
    with pytest.raises(NumericalError, match="not annihilated"):
        solve_generalized_eig(K, M, kernel=bad)
    # a duplicated column: still in the kernel, but rank deficient
    with pytest.raises(NumericalError, match="linearly dependent"):
        solve_generalized_eig(K, M, kernel=np.hstack([G, G[:, :1]]))
    # an exact kernel, but a mass matrix whose deflated block is indefinite
    n = 6
    Kd = np.diag([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    Md = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NumericalError, match="positive definite"):
        solve_generalized_eig(Kd, Md, kernel=np.eye(n)[:, :2])


@settings(max_examples=40, deadline=None)
@given(refined_tmeshes())
def test_glued_gradients_of_random_meshes_span_a_tree(case):
    """On analysis-suitable random T-meshes the restricted gradient, with
    walls on all four sides or on one, is an incidence kernel whose rows
    span a tree, and the deflated spectrum is the full pencil's (the
    oracle: SciPy's dense eigh, whose m smallest values are float zeros)."""
    from splinecomplex import problems, solvers
    from splinecomplex.assembly import Vector2D
    from splinecomplex.benchmarks import square_geometry
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tmesh import TMesh2D, TMeshError
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    p, raw = case
    assume(TMesh2D.from_raw(raw, (p, p)).is_analysis_suitable()[0])
    try:
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
    except TMeshError:
        assume(False)  # the known failure of a crossed repeated line
    ps = PatchSet([square_geometry()], [Vector2D.from_complex(tcx)])
    for walls in (problems.ALL_FACES_2D, [(0, 0)]):
        (C, M1, G), _, _ = problems._section_matrices(ps, {0: walls}, ())
        n, m = G.shape
        if m == 0:
            continue
        assert solvers._cotree(G).size == n - m
        res = solve_generalized_eig(C, M1, G)
        full = sla.eigh(C.toarray(), M1.toarray(), eigvals_only=True)
        assert res.zero_count == m
        npt.assert_allclose(res.nonzero, full[m:], rtol=1e-10, atol=0)


def test_a_kernel_without_a_spanning_tree_is_a_numerical_error():
    def solve(G):  # on a pencil whose exact kernel is range(G)
        N = sla.null_space(G.T)
        return solve_generalized_eig(N @ N.T, np.eye(G.shape[0]), G)

    # column 2 is reached only through a three-entry row: the kernel has
    # full rank, but no spanning tree of incidence rows, and is refused
    G = np.array([[2.0, 0, 0], [1.0, -1.0, 0], [1.0, 1.0, 1.0], [0, 3.0, 0], [0, 0, 0]])
    with pytest.raises(NumericalError, match="linearly dependent or not an incidence kernel: no tree of its incidence rows reaches column 2$"):
        solve(G)
    G[2] = [0, 1.0, 1.0]  # two entries of one sign are no edge either
    with pytest.raises(NumericalError, match="reaches column 2$"):
        solve(G)
    G[2] = [0, 1.0, -1.0]  # an edge: the tree spans
    assert solve(G).zero_count == 3


def test_values_only_deflated_solve_keeps_three_dense_arrays():
    """On square L3 (n = 1732 free dofs, m = 833 kernel columns) the
    values-only solve holds at most the Cholesky factor of G^T M G (m^2
    doubles, factored in place), then W and S (m (n-m) + (n-m)^2), then
    the deflated pencil (2 (n-m)^2): each factor, product and eigensolve
    works in place on arrays the solver owns; the pivots come from a
    sparse spanning tree."""
    K, M, G = _pencil_and_kernel("square", level=3)
    n, m = G.shape
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_generalized_eig(K, M, kernel=G)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert (n, m) == (1732, 833)
    assert peak <= 1.25 * 8 * max(n * m, m * (n - m) + (n - m) ** 2, 2 * (n - m) ** 2)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("vectors", [False, True])
def test_the_solver_never_writes_into_its_inputs(dense, vectors):
    # the factorizations and the eigensolve overwrite their arrays: only
    # copies the solver made, never the caller's K, M or kernel, even dense
    # ones in the Fortran order LAPACK would write into directly; without
    # deflation, an empty kernel on the nonsingular pencil (K + M, M)
    K, M, G = _pencil_and_kernel("square")
    KM = K + M
    if dense:
        K, KM, M, G = (np.asfortranarray(A.toarray()) for A in (K, KM, M, G))
    inputs = (K, KM, M, G)
    saved = [A.toarray() if sp.issparse(A) else A.copy() for A in inputs]
    for stiffness, kernel in ((K, G), (KM, np.zeros((G.shape[0], 0)))):
        solve_generalized_eig(stiffness, M, kernel, vectors=vectors)
        for A, B in zip(inputs, saved):
            assert np.array_equal(A.toarray() if sp.issparse(A) else A, B)


@pytest.mark.parametrize("problem", ["square", "thick_l"])
def test_a_gradient_left_out_of_the_kernel_is_a_numerical_error(problem):
    """With one kernel column dropped, the leftover gradient mode is a float
    zero of the deflated pencil (about 1e-16 of the largest eigenvalue); the
    zero count is the kernel's dimension, so that is a failure."""
    K, M, G = _pencil_and_kernel(problem)
    m = G.shape[1] - 1
    with pytest.raises(NumericalError, match=rf"^1 deflated eigenvalue\(s\) .* exact kernel of dimension {m}$"):
        solve_generalized_eig(K, M, kernel=G[:, 1:])


def test_zero_threshold_flag_is_gone():
    from splinecomplex.cli import main

    for argv in (["--tol", "1e-6", "solve-eig", "--problem", "p.json"], ["solve-eig", "--problem", "p.json", "--tol", "1e-6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# -- the thick L from two section eigensolves -------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("nz", [1, 2, 3])
def test_thick_l_modes_match_the_assembled_3d_pencil(p, nz):
    """The two-solve driver against the deflated solve of the curl-curl pencil
    assembled on the three Complex3D prisms: same sizes and zero block, and
    every nonzero eigenvalue to 1e-10."""
    from splinecomplex import problems

    ps, walls = _thick_l_prisms(p, nz)
    glue, (K, M), free = system_3d(ps, walls, ("curlcurl", "mass"))
    sub = np.ix_(free, free)
    want = solve_generalized_eig(K[sub], M[sub], kernel=gradient_kernel(ps, glue, walls, free))
    got = problems.thick_l_eigenproblem(0, degree=p, nz=nz, count=None)
    assert (got.dofs, got.system_size) == (K.shape[0], free.size)
    assert got.result.zero_count == want.zero_count
    assert np.array_equal(got.result.values[: got.result.zero_count], np.zeros(got.result.zero_count))
    npt.assert_allclose(got.result.nonzero, want.nonzero, rtol=1e-10, atol=0)


def test_thick_l_is_two_guarded_section_solves(monkeypatch):
    """The thick L makes two section eigensolves, the deflated section
    Maxwell pencil and the section Laplacian, and one 1D vertical solve,
    for any number of vertical modes.  Each section solve keeps its guards
    through the driver: a gradient left out of the section kernel is a
    float zero beyond it, and a float zero of the Laplacian, whose kernel
    is empty, raises."""
    from splinecomplex import problems
    from splinecomplex.assembly import Vector2D
    from splinecomplex.benchmarks import LSECTION_INTERFACES, lsection_patches, lsection_raw_tmesh
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    tcx = build_tspline_complex(derive_complex_meshes(lsection_raw_tmesh(0, 2), 2))
    ps = PatchSet(lsection_patches(), [Vector2D.from_complex(tcx)] * 3, LSECTION_INTERFACES)
    section = problems._section_matrices
    (C, M1, M0, G), _, _ = section(ps, problems._L_WALLS)
    L = (G.T @ M1 @ G).tolil()
    L[0, :] = L[:, 0] = 0.0
    with pytest.raises(NumericalError, match="exact kernel of dimension 0$"):
        solve_generalized_eig(L.tocsr(), M0, kernel=np.zeros((M0.shape[0], 0)))

    calls = []
    monkeypatch.setattr(problems, "solve_generalized_eig", lambda *a, **k: calls.append(1) or solve_generalized_eig(*a, **k))
    for nz in (1, 2, 3):
        calls.clear()
        problems.thick_l_eigenproblem(0, degree=2, nz=nz, count=None)
        assert len(calls) == 3, nz

    def dropped(ps, walls):  # the first free scalar dof and its gradient left out
        (C, M1, M0, G), glues, frees = section(ps, walls)
        return (C, M1, M0[1:, 1:], G[:, 1:]), glues, frees

    monkeypatch.setattr(problems, "_section_matrices", dropped)
    with pytest.raises(NumericalError, match=r"^1 deflated eigenvalue\(s\) .* exact kernel of dimension"):
        problems.thick_l_eigenproblem(0, degree=2, nz=2, count=None)


@pytest.mark.parametrize("level, p", [(0, 2), (1, 3)])
def test_thick_l_tm_family_is_the_l_membrane_spectrum(level, p):
    """Every Dirichlet eigenvalue of the L-section, assembled on its own
    scalar T-spline space, is a thick-L eigenvalue: the TM family of the
    constant vertical mode of the vertical component."""
    from splinecomplex import problems

    membrane = problems.lsection_laplace_eigenproblem(level, p, count=None).result.values
    thick = problems.thick_l_eigenproblem(level, degree=p, count=None).result.nonzero
    gap = np.abs(thick[None, :] - membrane[:, None]).min(axis=1) / membrane
    assert membrane.size > 0 and gap.max() <= 1e-11, gap.max()


def test_thick_l_converges_at_levels_0_to_2():
    """The thick L at p=3, every eigenvalue: the zero block is one free
    scalar dof per interior vertical B-spline, and the first eigenvalue
    approaches the benchmark 9.63972384472 from above."""
    from splinecomplex import problems

    runs = [problems.thick_l_eigenproblem(level, degree=3, count=None) for level in (0, 1, 2)]
    assert [r.result.zero_count for r in runs] == [783, 2010, 4302]
    assert [r.system_size for r in runs] == [2724, 6682, 13906]
    gaps = [r.result.nonzero[0] - 9.63972384472 for r in runs]
    assert 0 < gaps[2] < gaps[1] < gaps[0]
    npt.assert_allclose([r.result.nonzero[0] for r in runs], [9.64747878, 9.64280624, 9.64095058], rtol=0, atol=1e-8)


# -- the cylinder sector, one vertical mode at a time -----------------------------------


def _cylinder_assembled(p, nz):
    """The L0 cylinder sector source on the three Complex3D slices,
    assembled, glued and solved in 3D: (dofs, free dofs, H(curl) error)."""
    import math

    from splinecomplex import problems
    from splinecomplex.benchmarks import CYLINDER_INTERFACES, cylinder_section_raw_tmesh, cylinder_sector_patches
    from splinecomplex.bspline import KnotVector
    from splinecomplex.geometry import extrude
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    tcx = build_tspline_complex(derive_complex_meshes(cylinder_section_raw_tmesh(0), p))
    cx3 = Complex3D(tcx, KnotVector.uniform(p, nz))
    geoms = [extrude(g) for g in cylinder_sector_patches()]
    ps = PatchSet(geoms, [cx3] * 3, CYLINDER_INTERFACES)
    glue, (K, M), free = system_3d(ps, problems._CYL_WALLS, ("curlcurl", "mass"))
    b = glue.global_vector([assemble_load_3d(cx3, g, problems.cyl_exact_field) for g in geoms])
    x = np.zeros(glue.ndof)
    x[free] = solve_source((K + M)[np.ix_(free, free)].tocsc(), b[free])
    errs = [hcurl_error_3d(cx3, g, S @ x, problems.cyl_exact_field, lambda X: np.zeros((len(X), 3))) for S, g in zip(glue.scatters, geoms)]
    return glue.ndof, free.size, math.sqrt(sum(e**2 for pair in errs for e in pair))


def test_cylinder_dof_counts_t_spline_against_tensor():
    """The dof-efficiency rows of the cylinder sector at its default nz and
    p=3, L0-L3, counted from the section glues and the vertical knot vector
    as ``cylinder_sector_source`` counts them, without a solve: from L1 on,
    the T-spline space is smaller than the tensor space."""
    from splinecomplex import problems
    from splinecomplex.assembly import Scalar2D, Vector2D
    from splinecomplex.benchmarks import CYLINDER_INTERFACES, cylinder_section_raw_tmesh, cylinder_sector_patches
    from splinecomplex.bspline import KnotVector
    from splinecomplex.multipatch import PatchSet, build_glue
    from splinecomplex.tmesh import tensor_raw_tmesh
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    rows = {0: (1732, 1732), 1: (3811, 4687), 2: (10156, 15136), 3: (31593, 55533)}
    for level, want in rows.items():
        n = KnotVector.uniform(3, 2 ** (level + 1)).n
        raw, got = cylinder_section_raw_tmesh(level), []
        for mesh in (raw, tensor_raw_tmesh(raw.breakpoints_x, raw.breakpoints_y)):
            tcx = build_tspline_complex(derive_complex_meshes(mesh, 3))
            glue1, glue0 = (
                build_glue(PatchSet(cylinder_sector_patches(), [space] * 3, CYLINDER_INTERFACES))
                for space in (Vector2D.from_complex(tcx), Scalar2D(tcx.Y0))
            )
            got.append(glue1.ndof * n + glue0.ndof * (n - 1))
        assert tuple(got) == want, level
        assert level == 0 or got[0] < got[1]
    assert problems.cylinder_sector_source(0)[0] == rows[0][0]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("nz", [1, 2, 3])
def test_cylinder_modes_match_the_assembled_3d_solve(p, nz):
    """The per-mode driver against the source problem assembled on the three
    Complex3D slices: same sizes, and the H(curl) errors to 1e-11 relative
    (measured: at most 4.1e-12, at p=3, nz=3)."""
    from splinecomplex import problems

    want = _cylinder_assembled(p, nz)
    got = problems.cylinder_sector_source(0, degree=p, nz=nz)
    assert got[:2] == want[:2]
    npt.assert_allclose(got[2], want[2], rtol=1e-11, atol=0)


@pytest.mark.parametrize("p", [2, 3])
def test_cylinder_modal_load_is_the_3d_load_times_the_modes(monkeypatch, p):
    """The right-hand sides of the driver's mode solves, the glued modal load
    (bh, bv) on the free dofs, against the load assembled on the three
    Complex3D slices, glued by section and vertical function and times the
    modes (V, W): equal to 1e-12 of its largest entry."""
    from splinecomplex import problems
    from splinecomplex.assembly import Vector2D
    from splinecomplex.benchmarks import CYLINDER_INTERFACES, cylinder_section_raw_tmesh, cylinder_sector_patches
    from splinecomplex.bspline import KnotVector
    from splinecomplex.geometry import extrude
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    rhs = []
    monkeypatch.setattr(problems, "solve_source", lambda A, b: rhs.append(b) or solve_source(A, b))
    problems.cylinder_sector_source(0, degree=p, nz=2)

    tcx = build_tspline_complex(derive_complex_meshes(cylinder_section_raw_tmesh(0), p))
    kv_z = KnotVector.uniform(p, 2)
    cx3 = Complex3D(tcx, kv_z)
    sections = cylinder_sector_patches()
    ps = PatchSet(sections, [Vector2D.from_complex(tcx)] * 3, CYLINDER_INTERFACES)
    _, (glue1, glue0), (free1, free0) = problems._section_matrices(ps, problems._CYL_WALLS)
    _, V, W = problems._vertical_modes(kv_z, "natural")
    n1, n, h_end = tcx.Y1[0].dim, kv_z.n, cx3.blocks()[2][0]
    bh = bv = 0.0  # glued: section dofs x vertical functions
    for S1, S0, g in zip(glue1.scatters, glue0.scatters, sections):
        b = assemble_load_3d(cx3, extrude(g), problems.cyl_exact_field)
        h = np.vstack([b[: n1 * n].reshape(n, -1).T, b[n1 * n : h_end].reshape(n, -1).T])
        bh, bv = bh + S1.T @ h, bv + S0.T @ b[h_end:].reshape(n - 1, -1).T
    want = np.concatenate([(bh @ V)[free1].T.ravel(), (bv @ W)[free0].T.ravel()])

    assert len(rhs) == n
    got = np.concatenate([rhs[0]] + [b[: free1.size] for b in rhs[1:]] + [b[free1.size :] for b in rhs[1:]])
    npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _waveguide_assembled(k=1.2, degree=2, n_section=3, nz=2, length=1.0):
    """The straight guide as two Complex3D z patches, assembled, glued and
    solved in 3D, the port mass scattered to the dofs of the z-face traces:
    the dict of ``waveguide_scattering``."""
    import math

    from splinecomplex import problems
    from splinecomplex.assembly import Vector2D, traces
    from splinecomplex.benchmarks import square_geometry
    from splinecomplex.bspline import KnotVector
    from splinecomplex.geometry import linear_patch
    from splinecomplex.multipatch import Interface, PatchSet
    from splinecomplex.tmesh import tensor_raw_tmesh
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    b = [i / n_section for i in range(n_section + 1)]
    tcx = build_tspline_complex(derive_complex_meshes(tensor_raw_tmesh(b, b), degree))
    cx3, dz = Complex3D(tcx, KnotVector.uniform(degree, nz)), length / 2
    geoms = [linear_patch(np.diag([np.pi, np.pi, dz]), np.array([0.0, 0.0, i * dz])) for i in range(2)]
    ps = PatchSet(geoms, [cx3] * 2, [Interface((0, (2, 1)), (1, (2, 0)))])
    glue, (K, M), free = system_3d(ps, dict.fromkeys((0, 1), problems.ALL_FACES_2D), ("curlcurl", "mass"))
    section, walls2 = PatchSet([square_geometry()], [Vector2D.from_complex(tcx)]), {0: problems.ALL_FACES_2D}
    _, (K2, M2), free2 = problems._system(section, walls2, ("rotrot", "mass"))
    sub = np.ix_(free2, free2)
    k10sq, e_free = solve_port_mode(K2[sub], M2[sub], kernel=gradient_kernel(section, None, walls2, free2))
    e = np.zeros(K2.shape[0])
    e[free2] = e_free
    beta, Me = math.sqrt(k * k - k10sq), M2 @ e
    # the 3D dofs of the traces on each port, in the section's order
    tmaps = [np.array([dof for dof, _, _ in traces(cx3, (2, side))]) for side in (0, 1)]
    M2c = M2.tocoo()
    ports = [sp.coo_matrix((M2c.data, (t[M2c.row], t[M2c.col])), shape=(cx3.dim, cx3.dim)).tocsr() for t in tmaps]
    load = np.zeros(cx3.dim)
    load[tmaps[0]] = Me
    A = (K - k * k * M).astype(complex) + 1j * beta * glue.global_matrix(ports)
    x = np.zeros(glue.ndof, dtype=complex)
    x[free] = solve_source(A[np.ix_(free, free)].tocsc(), (2j * beta * (glue.scatters[0].T @ load))[free])
    I1, I2 = (complex((S @ x)[t] @ Me) for S, t in zip(glue.scatters, tmaps))
    R, T = compute_scattering(I1, I2, float(e @ Me), beta, 0.0, length)
    return {"k10_squared": k10sq, "beta": beta, "R": R, "T": T, "dofs": glue.ndof, "free_dofs": int(free.size)}


@pytest.mark.parametrize(
    "kw",
    [{}, {"degree": 3}, {"k": 1.7, "n_section": 4, "nz": 3}, {"degree": 3, "length": 2.5, "nz": 1}, {"degree": 1, "nz": 3}],
)
def test_waveguide_prism_matches_the_assembled_two_patch_guide(kw):
    """The guide's Kronecker system against the two glued Complex3D patches:
    equal port mode and sizes, and R and T to 1e-12 (measured: at most
    6.2e-15)."""
    from splinecomplex import problems

    got, want = problems.waveguide_scattering(**kw), _waveguide_assembled(**kw)
    sizes = ("k10_squared", "beta", "dofs", "free_dofs")
    assert [got[key] for key in sizes] == [want[key] for key in sizes]
    assert abs(got["R"] - want["R"]) <= 1e-12 and abs(got["T"] - want["T"]) <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_prism_pencil_is_the_assembled_3d_pencil(p):
    """``_prism_pencil`` with the full vertical matrices of (0, 2.5) against
    ``assemble_matrix_3d``'s curl-curl and mass on one patch diag(pi, pi,
    2.5), on the dofs off the side walls.  The 3D dofs are permuted from
    the Complex3D blocks() order to (horizontal, vertical), the vertical
    index slowest."""
    from scipy.sparse.linalg import norm as sp_norm

    from splinecomplex import problems
    from splinecomplex.assembly import Vector2D, _vertical_mass
    from splinecomplex.benchmarks import square_geometry
    from splinecomplex.bspline import KnotVector, grad_matrix_1d
    from splinecomplex.geometry import linear_patch
    from splinecomplex.multipatch import PatchSet
    from splinecomplex.tmesh import tensor_raw_tmesh
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    length, walls = 2.5, {0: problems.ALL_FACES_2D}
    b = [i / 3 for i in range(4)]
    tcx = build_tspline_complex(derive_complex_meshes(tensor_raw_tmesh(b, b), p))
    kv = KnotVector.uniform(p, 2)
    cx3 = Complex3D(tcx, kv)
    ps3 = PatchSet([linear_patch(np.diag([np.pi, np.pi, length]))], [cx3])
    _, (K3, M3), free = system_3d(ps3, walls, ("curlcurl", "mass"))
    section = PatchSet([square_geometry()], [Vector2D.from_complex(tcx)])
    (C, M1, M0, G), _, (free1, free0) = problems._section_matrices(section, walls)
    MB, MD = length * _vertical_mass(kv, "B"), _vertical_mass(kv.derived(), "D") / length
    K, M = problems._prism_pencil(C, M1, M0, G, MB, MD, grad_matrix_1d(kv).toarray())
    (o1, s1, *_), (o2, s2, *_), (o3, s0, *_) = cx3.blocks()
    horizontal = [o1 + iz * s1.dim + d if d < s1.dim else o2 + iz * s2.dim + d - s1.dim for iz in range(kv.n) for d in free1]
    vertical = [o3 + iz * s0.dim + d for iz in range(kv.n - 1) for d in free0]
    perm = np.array(horizontal + vertical)
    assert np.array_equal(np.sort(perm), free)
    for A, A3 in ((K, K3), (M, M3)):
        A3 = A3[np.ix_(perm, perm)]
        assert sp_norm(A - A3) <= 1e-13 * sp_norm(A3)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("nz", [1, 2, 3])
def test_vertical_modes_are_orthonormal(p, nz):
    """V is M_B-orthonormal under both lids; under natural lids mu_0 is an
    exact zero with a constant V column, and W is square and
    M_D-orthonormal."""
    from splinecomplex import problems
    from splinecomplex.assembly import _vertical_mass
    from splinecomplex.bspline import KnotVector

    kv = KnotVector.uniform(p, nz)
    M_B, M_D = _vertical_mass(kv, "B"), _vertical_mass(kv.derived(), "D")
    for lids, nmodes in (("pec", kv.n - 2), ("natural", kv.n)):
        mu, V, W = problems._vertical_modes(kv, lids)
        assert V.shape == (kv.n, nmodes) and mu.shape == (nmodes,)
        npt.assert_allclose(V.T @ M_B @ V, np.eye(nmodes), rtol=0, atol=1e-13)
    assert mu[0] == 0.0 and np.ptp(V[:, 0]) == 0.0 and np.all(mu[1:] > 0)
    assert W.shape == (kv.n - 1, kv.n - 1)
    npt.assert_allclose(W.T @ M_D @ W, np.eye(kv.n - 1), rtol=0, atol=1e-13)
