"""Interface conformity, dof merging, orientation signs, global operators."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sp_norm

from splinecomplex.assembly import Scalar2D, Vector2D, assemble_matrix_2d
from splinecomplex.benchmarks import LSECTION_INTERFACES, lsection_patches
from splinecomplex.bspline import KnotVector
from splinecomplex.exactrank import modular_rank
from splinecomplex.geometry import extrude, linear_patch
from splinecomplex.multipatch import (
    ConformityError,
    Interface,
    PatchSet,
    build_glue,
    check_conformity,
    global_operator,
)
from splinecomplex.tmesh import TMesh2D, TsplineSpace, tensor_raw_tmesh
from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

import oracle3d
from oracle3d import Complex3D, Scalar3D, assemble_load_3d, assemble_matrix_3d, hcurl_error_3d

F = Fraction


def uniform_raw(n):
    b = [F(k, n) for k in range(n + 1)]
    return tensor_raw_tmesh(b, b)


def scalar_space(n, p):
    return Scalar2D(TsplineSpace(TMesh2D.from_raw(uniform_raw(n), (p, p))))


def two_squares(n=3, p=2):
    """Patches (0,1)^2 and (1,2)x(0,1) sharing the edge x=1."""
    g0 = linear_patch(np.eye(2))
    g1 = linear_patch(np.eye(2), b=[1.0, 0.0])
    s0, s1 = scalar_space(n, p), scalar_space(n, p)
    itf = Interface((0, (0, 1)), (1, (0, 0)))
    return PatchSet([g0, g1], [s0, s1], [itf])


def test_two_patch_conformity_and_dim():
    ps = two_squares(3, 2)
    rep = check_conformity(ps)
    assert all(ok for _, ok, _ in rep)
    glue = build_glue(ps)
    n = ps.spaces[0].dim
    trace = 3 + 2  # 1D dim of S_2 on 3 spans
    assert glue.ndof == 2 * n - trace


def test_conformity_fails_on_refined_side():
    g0 = linear_patch(np.eye(2))
    g1 = linear_patch(np.eye(2), b=[1.0, 0.0])
    ps = PatchSet(
        [g0, g1],
        [scalar_space(3, 2), scalar_space(4, 2)],
        [Interface((0, (0, 1)), (1, (0, 0)))],
    )
    rep = check_conformity(ps)
    assert not rep[0][1]
    with pytest.raises(ConformityError):
        build_glue(ps)


def test_conformity_fails_on_geometry_gap():
    g0 = linear_patch(np.eye(2))
    g1 = linear_patch(np.eye(2), b=[1.5, 0.0])
    ps = PatchSet(
        [g0, g1],
        [scalar_space(3, 2), scalar_space(3, 2)],
        [Interface((0, (0, 1)), (1, (0, 0)))],
    )
    assert not check_conformity(ps)[0][1]


def test_single_patch_identity_glue():
    g0 = linear_patch(np.eye(2))
    ps = PatchSet([g0], [scalar_space(2, 2)], [])
    glue = build_glue(ps)
    assert glue.ndof == ps.spaces[0].dim
    assert np.array_equal(glue.scatters[0].toarray(), np.eye(glue.ndof))


def test_scalar_continuity_across_interface():
    ps = two_squares(3, 3)
    glue = build_glue(ps)
    rng = np.random.default_rng(40)
    x = rng.standard_normal(glue.ndof)
    c0 = ps.spaces[0].space
    c1 = ps.spaces[1].space
    loc0 = glue.scatters[0] @ x
    loc1 = glue.scatters[1] @ x
    ts = np.linspace(0.03, 0.97, 20)
    va = c0.eval(loc0, np.column_stack([np.ones_like(ts), ts]))
    vb = c1.eval(loc1, np.column_stack([np.zeros_like(ts), ts]))
    npt.assert_allclose(va, vb, atol=1e-8 * max(1, np.abs(va).max()))


def vector_space(n, p):
    tcx = build_tspline_complex(derive_complex_meshes(uniform_raw(n), p))
    return Vector2D.from_complex(tcx), tcx


def test_vector_tangential_continuity():
    v0, _ = vector_space(3, 2)
    v1, _ = vector_space(3, 2)
    g0 = linear_patch(np.eye(2))
    g1 = linear_patch(np.eye(2), b=[1.0, 0.0])
    ps = PatchSet([g0, g1], [v0, v1], [Interface((0, (0, 1)), (1, (0, 0)))])
    glue = build_glue(ps)
    rng = np.random.default_rng(41)
    x = rng.standard_normal(glue.ndof)
    loc0 = glue.scatters[0] @ x
    loc1 = glue.scatters[1] @ x
    ts = np.linspace(0.05, 0.95, 20)
    # tangential component on the face x=1 is the second one (both identity maps)
    ya = np.column_stack([np.ones_like(ts), ts])
    yb = np.column_stack([np.zeros_like(ts), ts])
    va = v0.c2.eval(loc0[v0.c1.dim :], ya)
    vb = v1.c2.eval(loc1[v1.c1.dim :], yb)
    npt.assert_allclose(va, vb, atol=1e-8 * max(1, np.abs(va).max()))


def test_flip_interface_continuity():
    # patch 1 rotated by 180 degrees: the shared edge runs backwards
    v0, _ = vector_space(3, 2)
    v1, _ = vector_space(3, 2)
    g0 = linear_patch(np.eye(2))
    g1 = linear_patch(-np.eye(2), b=[2.0, 1.0])  # maps (0,1)^2 onto (1,2)x(0,1)
    ps = PatchSet(
        [g0, g1],
        [v0, v1],
        [Interface((0, (0, 1)), (1, (0, 1)), flip=(True,))],
    )
    rep = check_conformity(ps)
    assert all(ok for _, ok, _ in rep), rep
    glue = build_glue(ps)
    rng = np.random.default_rng(42)
    x = rng.standard_normal(glue.ndof)
    loc0 = glue.scatters[0] @ x
    loc1 = glue.scatters[1] @ x
    ts = np.linspace(0.05, 0.95, 17)
    pa = np.column_stack([np.ones_like(ts), ts])
    pb = np.column_stack([np.ones_like(ts), 1.0 - ts])
    va = v0.c2.eval(loc0[v0.c1.dim :], pa)  # physical tangent +e_y
    vb = v1.c2.eval(loc1[v1.c1.dim :], pb)  # physical tangent -e_y
    npt.assert_allclose(va, -vb, atol=1e-8 * max(1, np.abs(va).max()))


def test_lsection_global_grad_rank():
    # three-patch L: the union is simply connected, so the kernel of the
    # global gradient is the constants only
    p = 2
    raw = uniform_raw(3)
    geoms = lsection_patches()
    scalars = []
    vectors = []
    tcxs = []
    for _ in range(3):
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
        tcxs.append(tcx)
        scalars.append(Scalar2D(TsplineSpace(tcx.meshes.M0)))
        vectors.append(Vector2D.from_complex(tcx))
    ps0 = PatchSet(geoms, scalars, LSECTION_INTERFACES)
    ps1 = PatchSet(geoms, vectors, LSECTION_INTERFACES)
    glue0 = build_glue(ps0)
    glue1 = build_glue(ps1)
    ops = [tcx.operators_int["grad"] for tcx in tcxs]
    G = global_operator(glue0, glue1, ops)
    # d of d is inherited: global rot of global grad
    rot_ops = [tcx.operators_int["rot"] for tcx in tcxs]
    # scalar field constant: gradient zero
    assert np.allclose((G @ np.ones(glue0.ndof)), 0)
    r = modular_rank(G)
    assert r == glue0.ndof - 1


def test_patch_order_swap_leaves_spectrum():
    ps = two_squares(3, 2)
    glue = build_glue(ps)
    Ms = [assemble_matrix_2d(s, g, "mass") for s, g in zip(ps.spaces, ps.geoms)]
    M = glue.global_matrix(Ms).toarray()
    # swap the patch order (interface declared from the other side)
    g0, g1 = ps.geoms
    s0, s1 = ps.spaces
    ps2 = PatchSet([g1, g0], [s1, s0], [Interface((0, (0, 0)), (1, (0, 1)))])
    glue2 = build_glue(ps2)
    M2 = glue2.global_matrix(
        [assemble_matrix_2d(s, g, "mass") for s, g in zip(ps2.spaces, ps2.geoms)]
    ).toarray()
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(M)), np.sort(np.linalg.eigvalsh(M2)), atol=1e-12)


def test_two_cubes_scalar_dim():
    p = 2
    n = 2
    raw = uniform_raw(n)
    kv_z = KnotVector.uniform(p, n)
    spaces = []
    for _ in range(2):
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
        spaces.append(Scalar3D(Complex3D(tcx, kv_z)))
    g0 = extrude(linear_patch(np.eye(2)))
    g1 = extrude(linear_patch(np.eye(2), [1.0, 0.0]))
    ps = PatchSet([g0, g1], spaces, [Interface((0, (0, 1)), (1, (0, 0)))])
    glue = build_glue(ps)
    n1d = n + p  # univariate dimension
    assert spaces[0].dim == n1d**3
    assert glue.ndof == 2 * n1d**3 - n1d**2


def test_two_cubes_x1_glue_dd_zero():
    p = 2
    raw = uniform_raw(2)
    kv_z = KnotVector.uniform(p, 2)
    x1s, x0s, cx3s = [], [], []
    for _ in range(2):
        tcx = build_tspline_complex(derive_complex_meshes(raw, p))
        cx3 = Complex3D(tcx, kv_z)
        cx3s.append(cx3)
        x1s.append(cx3)
        x0s.append(Scalar3D(cx3))
    g0 = extrude(linear_patch(np.eye(2)))
    g1 = extrude(linear_patch(np.eye(2), [1.0, 0.0]))
    itf = [Interface((0, (0, 1)), (1, (0, 0)))]
    glue0 = build_glue(PatchSet([g0, g1], x0s, itf))
    glue1 = build_glue(PatchSet([g0, g1], x1s, itf))
    grads = [c.operators()["grad"] for c in cx3s]
    G = global_operator(glue0, glue1, grads)
    assert np.allclose(np.abs(G @ np.ones(glue0.ndof)), 0, atol=1e-12)
    rng = np.random.default_rng(43)
    x = rng.standard_normal(glue0.ndof)
    # glued gradient fields are tangentially continuous: check by evaluating
    # the grad coefficients patchwise and comparing scalar gradients
    c0 = glue0.scatters[0] @ x
    c1 = glue0.scatters[1] @ x
    s2d = cx3s[0].tcx.Y0
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    za = 0.37
    # scalar continuity at the interface
    va = _eval_scalar3(cx3s[0], c0, np.column_stack([np.ones(10), pts[:, 0], np.full(10, za)]))
    vb = _eval_scalar3(cx3s[1], c1, np.column_stack([np.zeros(10), pts[:, 0], np.full(10, za)]))
    npt.assert_allclose(va, vb, atol=1e-9 * max(1, np.abs(va).max()))


def _eval_scalar3(cx3, coeffs, pts):
    from splinecomplex.bspline import scaled_eval

    s2d = cx3.tcx.Y0
    kvz = cx3.kv_z
    ks = kvz.knots
    p = kvz.degree
    out = np.zeros(pts.shape[0])
    for iz in range(kvz.n):
        zv = scaled_eval(ks[iz : iz + p + 2], p, "B", pts[:, 2])
        block = coeffs[iz * s2d.dim : (iz + 1) * s2d.dim]
        if np.any(block):
            out += s2d.eval(block, pts[:, :2]) * zv
    return out


def test_thick_l_zero_block_is_glued_gradient_image():
    """The zero block of the thick-L Maxwell spectrum is the gradient image of
    the glued scalar space under the same walls: its size is the number of
    free scalar dofs."""
    from splinecomplex.assembly import dirichlet_dofs
    from splinecomplex.benchmarks import lsection_raw_tmesh
    from splinecomplex.problems import thick_l_eigenproblem

    p, nz = 1, 2
    tcx = build_tspline_complex(derive_complex_meshes(lsection_raw_tmesh(0, p), p))
    spaces = [Scalar3D(Complex3D(tcx, KnotVector.uniform(p, nz))) for _ in range(3)]
    glue = build_glue(PatchSet([extrude(g) for g in lsection_patches()], spaces, LSECTION_INTERFACES))
    walls = {0: [(0, 0), (0, 1), (1, 1)], 1: [(0, 1), (1, 1)], 2: [(0, 1), (1, 0), (1, 1)]}
    walled = set()
    for k, faces in walls.items():
        walled.update(glue.global_dofs_for(k, dirichlet_dofs(spaces[k], faces + [(2, 0), (2, 1)])))
    free = glue.ndof - len(walled)
    assert free == 161
    assert thick_l_eigenproblem(0, degree=p, nz=nz, count=None).result.zero_count == free


def test_permuted_flipped_interface_glues_gradients():
    """Patch 1 is the cube (1,2)x(0,1)^2 parametrized as (x, y, z) =
    (2 - eta, 1 - zeta, xi): on the interface x = 1 the face axes (y, z) of
    patch 0 map onto (zeta, xi), a permutation with the first axis
    reversed.  The glued gradient, the glued curl-curl kernel and a global
    gradient field must all come out right across it."""
    from splinecomplex.solvers import solve_source

    p = 2
    tcx = build_tspline_complex(derive_complex_meshes(uniform_raw(2), p))
    cx3 = Complex3D(tcx, KnotVector.uniform(p, 2))
    geoms = [linear_patch(np.eye(3)), linear_patch(np.array([[0.0, -1, 0], [0, 0, -1], [1, 0, 0]]), b=[2.0, 1, 0])]
    itf = [Interface((0, (0, 1)), (1, (1, 1)), perm=(1, 0), flip=(True, False))]
    glue0 = build_glue(PatchSet(geoms, [Scalar3D(cx3)] * 2, itf))
    glue1 = build_glue(PatchSet(geoms, [cx3] * 2, itf))
    n1d = 2 + p
    assert glue0.ndof == 2 * n1d**3 - n1d**2

    # the glued gradient is the patch gradient on both sides
    grad = cx3.operators()["grad"]
    G = global_operator(glue0, glue1, [grad, grad])
    x = np.random.default_rng(44).standard_normal(glue0.ndof)
    for S0, S1 in zip(glue0.scatters, glue1.scatters):
        npt.assert_allclose(S1 @ (G @ x), grad @ (S0 @ x), rtol=0, atol=1e-12 * np.abs(x).max())
    assert np.abs(G @ np.ones(glue0.ndof)).max() < 1e-12

    # the glued curl-curl matrix annihilates the glued gradients
    K = glue1.global_matrix([assemble_matrix_3d(cx3, g, "curlcurl") for g in geoms])
    Gx = G @ x
    assert np.linalg.norm(K @ Gx) < 1e-13 * sp_norm(K) * np.linalg.norm(Gx)

    # grad(x^2 y z) lies in the glued space: the source problem reproduces it
    u = lambda X: np.column_stack([2 * X[:, 0] * X[:, 1] * X[:, 2], X[:, 0] ** 2 * X[:, 2], X[:, 0] ** 2 * X[:, 1]])
    zero = lambda X: np.zeros((X.shape[0], 3))
    M = glue1.global_matrix([assemble_matrix_3d(cx3, g, "mass") for g in geoms])
    b = glue1.global_vector([assemble_load_3d(cx3, g, u) for g in geoms])
    c = solve_source((K + M).tocsc(), b)
    for S, g in zip(glue1.scatters, geoms):
        e_l2, e_curl = hcurl_error_3d(cx3, g, S @ c, u, zero)
        assert e_l2 < 1e-9 and e_curl < 1e-9, (e_l2, e_curl)


def _global_operator_by_rows(glue_src, glue_dst, local_ops):
    """Reference for global_operator: each global row copied from its first
    (patch, local row) in patch order, one row at a time."""
    masters = [None] * glue_dst.ndof
    for k, S in enumerate(glue_dst.scatters):
        coo = S.tocoo()
        for i, g, s in zip(coo.row, coo.col, coo.data):
            if masters[g] is None:
                masters[g] = (k, int(i), int(s))
    rows = [s * (local_ops[k].getrow(i) @ glue_src.scatters[k]) for k, i, s in masters]
    return sp.vstack(rows).tocsr()


def test_global_operator_matches_row_by_row_reference():
    """On the permuted, flipped two-cube interface the selection-matrix
    global operator equals the row-by-row reference exactly, for the float
    gradient, an X1 -> X1 operator and the integer-scaled gradient, each
    doubled on patch 1."""
    p = 2
    tcx = build_tspline_complex(derive_complex_meshes(uniform_raw(2), p))
    cx3 = Complex3D(tcx, KnotVector.uniform(p, 2))
    geoms = [linear_patch(np.eye(3)), linear_patch(np.array([[0.0, -1, 0], [0, 0, -1], [1, 0, 0]]), b=[2.0, 1, 0])]
    itf = [Interface((0, (0, 1)), (1, (1, 1)), perm=(1, 0), flip=(True, False))]
    glue0 = build_glue(PatchSet(geoms, [Scalar3D(cx3)] * 2, itf))
    glue1 = build_glue(PatchSet(geoms, [cx3] * 2, itf))
    ops = cx3.operators()
    grad_int = (ops["grad"] * tcx.denominators["grad"]).tocsr()
    grad_int.data = np.rint(grad_int.data)
    grad_int = grad_int.astype(np.int64)
    for src, dst, op in ((glue0, glue1, ops["grad"]), (glue1, glue1, ops["grad"] @ ops["grad"].T), (glue0, glue1, grad_int)):
        ops_k = [op, 2 * op]  # unequal per patch, so the choice of master rows shows
        got = global_operator(src, dst, ops_k)
        want = _global_operator_by_rows(src, dst, ops_k)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.toarray(), want.toarray())
        assert not np.array_equal(got.toarray(), global_operator(src, dst, ops_k[::-1]).toarray())


@pytest.mark.parametrize(
    "flip", [(False, False), (True, False), (False, True), (True, True)], ids=["kept", "flip0", "flip1", "flip01"]
)
@pytest.mark.parametrize("perm", [(0, 1), (1, 0)], ids=["same", "swap"])
def test_every_interface_orientation_glues_gradients(perm, flip):
    """Two unit cubes meeting at x = 1, in all 8 orientations of the face
    map: patch 1 is (1,2)x(0,1)^2 with its face eta = side on the
    interface, and the face axes (y, z) of patch 0 map onto its (xi, zeta)
    by ``perm`` and ``flip``; eta runs along x or against it so that the
    map keeps a positive Jacobian."""
    p = 2
    cx3 = Complex3D(build_tspline_complex(derive_complex_meshes(uniform_raw(2), p)), KnotVector.uniform(p, 2))
    A, b = np.zeros((3, 3)), np.zeros(3)
    for i in range(2):  # a-face coordinate i of (y, z) is b-face coordinate perm[i] of (xi, zeta)
        A[1 + i, (0, 2)[perm[i]]] = -1.0 if flip[i] else 1.0
        b[1 + i] = 1.0 if flip[i] else 0.0
    A[0, 1] = 1.0
    side = int(np.linalg.det(A) < 0)
    A[0, 1], b[0] = (-1.0, 2.0) if side else (1.0, 1.0)
    geoms = [linear_patch(np.eye(3)), linear_patch(A, b=b)]
    itf = [Interface((0, (0, 1)), (1, (1, side)), perm=perm, flip=flip)]
    assert all(ok for _, ok, _ in check_conformity(PatchSet(geoms, [cx3] * 2, itf)))
    glue0 = build_glue(PatchSet(geoms, [Scalar3D(cx3)] * 2, itf))
    glue1 = build_glue(PatchSet(geoms, [cx3] * 2, itf))
    grad = cx3.operators()["grad"]
    G = global_operator(glue0, glue1, [grad, grad])
    x = np.random.default_rng(45).standard_normal(glue0.ndof)
    for S0, S1 in zip(glue0.scatters, glue1.scatters):
        npt.assert_allclose(S1 @ (G @ x), grad @ (S0 @ x), rtol=0, atol=1e-12 * np.abs(x).max())
    # the scatter glue of the patch matrices is the sum of S^T A S
    for kind in ("mass", "curlcurl"):
        local = [assemble_matrix_3d(cx3, g, kind) for g in geoms]
        _check_scatter_glue(glue1.global_matrix(local), glue1, local)


def _check_scatter_glue(A, glue, locals_):
    """A glued matrix against the sum of the products S^T A S."""
    ref = sum(S.T @ Ak @ S for S, Ak in zip(glue.scatters, locals_)).tocsr()
    assert A.shape == ref.shape and A.has_sorted_indices
    assert sp_norm(A - ref) <= 1e-14 * sp_norm(ref)


@pytest.mark.parametrize("driver", ["cylinder", "thick_l", "lsection"])
def test_scatter_glue_matches_sparse_products(monkeypatch, driver):
    """Every matrix the drivers glue (the prisms' section matrices, the 2D
    L-section patches) equals the sum of S^T A S."""
    from splinecomplex import problems
    from splinecomplex.multipatch import Glue

    calls = []
    original = Glue.global_matrix

    def checking(self, locals_):
        calls.append(len(locals_))
        A = original(self, locals_)
        _check_scatter_glue(A, self, locals_)
        return A

    monkeypatch.setattr(Glue, "global_matrix", checking)
    run = {
        "cylinder": lambda: problems.cylinder_sector_source(0, degree=2, nz=2),
        "thick_l": lambda: problems.thick_l_eigenproblem(0, degree=2, count=None),
        "lsection": lambda: problems.lsection_laplace_eigenproblem(1, degree=2),
    }[driver]
    run()
    # the prisms (thick L, cylinder) glue three section matrices
    assert calls == {"lsection": [3, 3]}.get(driver, [3, 3, 3])


@pytest.mark.parametrize("driver", ["cylinder", "thick_l", "waveguide", "square", "lsection"])
def test_prism_drivers_glue_each_section_space_once(monkeypatch, driver):
    """The three prisms build no 3D space and assemble no 3D matrix: the
    library has neither, they live in the tests' oracle; the two multipatch
    sections build one glue per section space (vector and scalar), and the
    guide's one-patch section none.  So does the one-patch square cavity;
    the L-section glues its one scalar space."""
    from splinecomplex import assembly, problems

    for name in ("Complex3D", "Scalar3D", "assemble_matrix_3d"):
        assert name not in assembly.__all__ and name not in vars(problems), name
    calls = []
    original = problems.build_glue

    def counting(ps):
        calls.append(type(ps.spaces[0]).__name__)
        return original(ps)

    def unbuilt(self):
        raise AssertionError("a prism driver built a Complex3D")

    monkeypatch.setattr(problems, "build_glue", counting)
    monkeypatch.setattr(oracle3d.Complex3D, "__post_init__", unbuilt)
    if driver == "cylinder":
        problems.cylinder_sector_source(0, degree=2, nz=2)
    elif driver == "thick_l":
        problems.thick_l_eigenproblem(0, degree=2, count=None)
    elif driver == "square":
        problems.square_eigenproblem(0, 2)
    elif driver == "lsection":
        problems.lsection_laplace_eigenproblem(0, 2)
    else:
        problems.waveguide_scattering()
    assert calls == {"waveguide": [], "square": [], "lsection": ["Scalar2D"]}.get(driver, ["Vector2D", "Scalar2D"])


def test_cycle_of_interfaces_glues_the_centre_once():
    """Four rotated unit patches cover (-1,1)^2: the L-section's three and
    a 180 degree rotation.  Their four interfaces close a cycle around the
    origin, whose scalar dof all four patches share once."""
    from splinecomplex.problems import _section_matrices
    from splinecomplex.solvers import solve_generalized_eig

    tcx = build_tspline_complex(derive_complex_meshes(uniform_raw(3), 2))
    geoms = lsection_patches() + [linear_patch(-np.eye(2))]
    interfaces = [
        *LSECTION_INTERFACES,
        Interface((2, (1, 0)), (3, (0, 0))),
        Interface((0, (0, 0)), (3, (1, 0))),
    ]
    assert build_glue(PatchSet(geoms, [Scalar2D(tcx.Y0)] * 4, interfaces)).ndof == 81
    ps = PatchSet(geoms, [Vector2D.from_complex(tcx)] * 4, interfaces)
    assert build_glue(ps).ndof == 144
    (C, M1, G), _, _ = _section_matrices(ps, {k: [(0, 1), (1, 1)] for k in range(4)}, ())
    res = solve_generalized_eig(C, M1, G, 6)
    assert res.zero_count == 49
    npt.assert_allclose(res.nonzero / (np.pi / 2) ** 2, [1, 1, 2, 4, 4, 5], rtol=0, atol=1e-2)
