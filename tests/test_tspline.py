"""T-spline complexes: derived meshes, operators, dimensions, exactness."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from splinecomplex.benchmarks import square_raw_tmesh, two_t_raw
from splinecomplex.bspline import KnotVector
from splinecomplex.complexes import build_complex
from splinecomplex.tmesh import RawTMesh, TMesh2D, tensor_raw_tmesh
from splinecomplex.tspline import (
    build_tspline_complex,
    derive_complex_meshes,
    verify_t_exactness,
)

F = Fraction


def uniform_raw(n):
    b = [F(k, n) for k in range(n + 1)]
    return tensor_raw_tmesh(b, b)


def uniform_kv(p, n):
    return KnotVector.uniform(p, n)


def test_tensor_meshes_equal_for_odd_p():
    cm = derive_complex_meshes(uniform_raw(3), 3)
    ref = cm.M0.line_segments_by_value()
    for m in (cm.M11, cm.M12, cm.M2):
        assert m.line_segments_by_value() == ref
        assert m.xs == cm.M0.xs and m.ys == cm.M0.ys


def test_tensor_meshes_even_p_differ_only_on_boundary():
    cm = derive_complex_meshes(uniform_raw(3), 2)
    # M11 loses one x-boundary repetition per side
    assert len(cm.M11.xs) == len(cm.M0.xs) - 2
    assert cm.M11.ys == cm.M0.ys
    assert len(cm.M2.xs) == len(cm.M0.xs) - 2
    assert len(cm.M2.ys) == len(cm.M0.ys) - 2
    assert cm.extended_meshes_agree()


def test_square_mesh_family_extended_meshes_agree():
    for p in (2, 3):
        cm = derive_complex_meshes(square_raw_tmesh(0), p)
        assert cm.extended_meshes_agree()


def test_tensor_reduction_bit_equality():
    # on tensor-product input every operator equals the Kronecker B-spline path
    for n, p in ((3, 2), (3, 3), (2, 4)):
        raw = uniform_raw(n)
        cm = derive_complex_meshes(raw, p)
        tcx = build_tspline_complex(cm)
        kv = uniform_kv(p, n)
        bcx = build_complex([kv, kv])
        assert tcx.dims == (bcx.space_dim(0), bcx.space_dim(1), bcx.space_dim(2))
        for name in ("grad", "rot", "rotvec", "div"):
            A = tcx.operators[name]
            B = bcx.operators[name]
            assert (A - B).nnz == 0, (n, p, name)


def test_square_complex_dimensions():
    cm = derive_complex_meshes(square_raw_tmesh(0), 3)
    tcx = build_tspline_complex(cm)
    c = cm.M0.census()
    # odd p: dimY0 = V0, dimY1 = E0 + #T-junctions, dimY2 = F0 + #T-junctions
    assert tcx.space_dim(0) == c["V0"] == 43
    assert tcx.space_dim(1) == c["E0"] + c["V0_h"] + c["V0_v"] == 74
    assert tcx.space_dim(2) == c["F0"] + c["V0_h"] + c["V0_v"] == 32
    assert tcx.space_dim(0) + tcx.space_dim(2) == tcx.space_dim(1) + 1


def test_square_level1_dimension():
    cm = derive_complex_meshes(square_raw_tmesh(1), 3)
    tcx = build_tspline_complex(cm)
    assert tcx.space_dim(1) == 184
    assert tcx.space_dim(0) + tcx.space_dim(2) == tcx.space_dim(1) + 1


def test_one_tjunction_column_structure():
    # the gradient column of a T-junction anchor reaches exactly two targets
    # in the first component, as in the one-T illustration
    cm = derive_complex_meshes(square_raw_tmesh(0), 3)
    tcx = build_tspline_complex(cm)
    juncs = cm.M0.t_junctions()
    anchors = {a.locators: a for a in tcx.Y0.anchors}
    (i, j, _, _) = juncs[0]
    a = anchors[(("line", i), ("line", j))]
    G = tcx.operators["grad"].tocsc()
    col = G[:, a.index]
    c1_rows = col.tocoo().row[col.tocoo().row < tcx.Y1[0].dim]
    assert len(c1_rows) == 2


def test_dd_zero_and_entries_square():
    for p in (2, 3):
        tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(0), p))
        # exact integer compositions vanish
        rot_grad = tcx.operators_int["rot"] @ tcx.operators_int["grad"]
        div_rotvec = tcx.operators_int["div"] @ tcx.operators_int["rotvec"]
        assert rot_grad.nnz == 0 or np.all(rot_grad.data == 0)
        assert div_rotvec.nnz == 0 or np.all(div_rotvec.data == 0)
    # anchors whose supports straddle an extension bay pick up exact dyadic
    # weights in (-1, 1); entries stay bounded by one
    tcx3 = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(0), 3))
    data = np.unique(tcx3.operators["grad"].tocoo().data)
    assert np.all(np.abs(data) <= 1.0)
    assert {-1.0, 1.0} <= set(data)
    scaled = data * tcx3.denominators["grad"]
    assert np.allclose(scaled, np.round(scaled))  # exact dyadic rationals


def test_exactness_square_and_tensor():
    for p in (2, 3, 4):
        tcx = build_tspline_complex(derive_complex_meshes(uniform_raw(3), p))
        rep = verify_t_exactness(tcx)
        assert rep.passed and rep.certified, (p, rep.identities)
    for level, p in ((0, 2), (0, 3), (1, 3)):
        tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(level), p))
        rep = verify_t_exactness(tcx)
        assert rep.passed and rep.certified, (level, p, rep.identities)
        # im(rot) = Y2: certified rank of the last operator equals dim Y2
        assert rep.ranks["d1"] == tcx.space_dim(2)


def test_matrix_action_matches_finite_differences():
    cm = derive_complex_meshes(square_raw_tmesh(0), 3)
    tcx = build_tspline_complex(cm)
    rng = np.random.default_rng(30)
    c = rng.standard_normal(tcx.space_dim(0))
    gc = tcx.operators["grad"] @ c
    c1, c2 = tcx.Y1
    n1 = c1.dim
    pts = rng.uniform(0.05, 0.95, size=(30, 2))
    h = 1e-6
    gx = (tcx.Y0.eval(c, pts + [h, 0]) - tcx.Y0.eval(c, pts - [h, 0])) / (2 * h)
    gy = (tcx.Y0.eval(c, pts + [0, h]) - tcx.Y0.eval(c, pts - [0, h])) / (2 * h)
    vx = c1.eval(gc[:n1], pts)
    vy = c2.eval(gc[n1:], pts)
    scale = max(1.0, np.abs(gx).max(), np.abs(gy).max())
    npt.assert_allclose(vx, gx, atol=3e-6 * scale)
    npt.assert_allclose(vy, gy, atol=3e-6 * scale)


def test_gram_nonsingular_square():
    from splinecomplex.tmesh import TsplineSpace

    mesh = TMesh2D.from_raw(square_raw_tmesh(0), (3, 3))
    space = TsplineSpace(mesh)
    G = space.gram_matrix()
    s = np.linalg.svd(G, compute_uv=False)
    assert s[-1] / s[0] > 1e-10


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        derive_complex_meshes(uniform_raw(2), 0)


def test_non_as_input_rejected():
    from splinecomplex.benchmarks import crossing_extensions_raw

    with pytest.raises(Exception, match="analysis-suitable"):
        derive_complex_meshes(crossing_extensions_raw(), 3)


def test_derivative_needs_one_table_of_line_values():
    # anchors match by line ranks, which only mean the same knots when both
    # meshes rank the same distinct line values
    from splinecomplex.tmesh import TMeshError, TsplineSpace
    from splinecomplex.tspline import _derivative_block

    a, b = derive_complex_meshes(uniform_raw(2), 3), derive_complex_meshes(uniform_raw(3), 3)
    src = TsplineSpace(a.M0)
    assert _derivative_block(src, TsplineSpace(a.M11, ("D", "B")), 0)[1] == 1
    with pytest.raises(TMeshError, match="distinct line values"):
        _derivative_block(src, TsplineSpace(b.M11, ("D", "B")), 0)


def test_random_as_fixture_family():
    # band-refined fixtures: vertical lines full, horizontal lines partial
    from splinecomplex.benchmarks import cylinder_section_raw_tmesh

    for level in (1, 2):
        raw = cylinder_section_raw_tmesh(level)
        for p in (2, 3):
            cm = derive_complex_meshes(raw, p)
            tcx = build_tspline_complex(cm)
            assert tcx.space_dim(0) + tcx.space_dim(2) == tcx.space_dim(1) + 1
            rep = verify_t_exactness(tcx)
            assert rep.passed and rep.certified, (level, p, rep.identities)


def test_zero_count_matches_restricted_grad_rank():
    # the zero modes of the cavity eigenproblem are the discrete gradients of
    # the fully constrained scalar space: cross-check via the exact rank of
    # the boundary-restricted gradient matrix
    from splinecomplex.assembly import Vector2D, dirichlet_dofs
    from clamping import is_clamped
    from splinecomplex.exactrank import modular_rank
    from splinecomplex.problems import square_eigenproblem

    for level, zeros in ((0, 21), (1, 65)):
        run = square_eigenproblem(level)
        tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(level), 3))
        G = tcx.operators_int["grad"]
        # scalar dofs without boundary trace
        keep0 = []
        for a in tcx.Y0.anchors:
            clamped = any(
                is_clamped(lkv, 3, side) for lkv in (a.lkv1, a.lkv2) for side in (0, 1)
            )
            if not clamped:
                keep0.append(a.index)
        v2 = Vector2D.from_complex(tcx)
        constrained1 = dirichlet_dofs(v2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        keep1 = np.setdiff1d(np.arange(v2.dim), constrained1)
        Gb = G[keep1][:, keep0]
        r = modular_rank(Gb)
        assert r == len(keep0) == run.result.zero_count == zeros, level

    # the glued thick L (p=1, nz=2): the integer-scaled gradient, glued and
    # restricted to the free dofs, has full column rank m, and m is both the
    # zero count and the column count of the kernel the eigensolve deflates
    import scipy.sparse as sp

    from oracle3d import Complex3D, Scalar3D, gradient_kernel

    from splinecomplex.benchmarks import LSECTION_INTERFACES, lsection_patches, lsection_raw_tmesh
    from splinecomplex.bspline import grad_matrix_1d
    from splinecomplex.geometry import extrude
    from splinecomplex.multipatch import PatchSet, build_glue, global_operator
    from splinecomplex import problems

    p, nz = 1, 2
    tcx = build_tspline_complex(derive_complex_meshes(lsection_raw_tmesh(0, p), p))
    cx3 = Complex3D(tcx, KnotVector.uniform(p, nz))
    oi, d = tcx.operators_int["grad"], tcx.denominators["grad"]
    n11 = tcx.Y1[0].dim
    Iz = sp.identity(cx3.nz, format="csr", dtype=np.int64)  # vertical functions
    G_int = sp.vstack(
        [sp.kron(Iz, oi[:n11]), sp.kron(Iz, oi[n11:]), d * sp.kron(grad_matrix_1d(cx3.kv_z), sp.identity(tcx.space_dim(0), dtype=np.int64))]
    ).tocsr()
    geoms = [extrude(g) for g in lsection_patches()]
    walls = {k: faces + [(2, 0), (2, 1)] for k, faces in problems._L_WALLS.items()}
    ps1 = PatchSet(geoms, [cx3] * 3, LSECTION_INTERFACES)
    ps0 = PatchSet(geoms, [Scalar3D(cx3)] * 3, LSECTION_INTERFACES)
    glue1, glue0 = build_glue(ps1), build_glue(ps0)
    free1 = problems._free(ps1, glue1, walls, glue1.ndof)
    free0 = problems._free(ps0, glue0, walls, glue0.ndof)
    Gb = global_operator(glue0, glue1, [G_int] * 3)[free1][:, free0]
    kernel = gradient_kernel(ps1, glue1, walls, free1)
    assert abs(Gb / d - kernel).max() < 1e-15
    run = problems.thick_l_eigenproblem(0, degree=p, nz=nz, count=None)
    assert modular_rank(Gb) == Gb.shape[1] == kernel.shape[1] == run.result.zero_count == 161
