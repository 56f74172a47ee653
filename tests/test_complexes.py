"""Tensor mesh census, complex dimensions, operators and exactness."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomplex.bspline import KnotVector
from splinecomplex.complexes import (
    build_complex,
    entity_correspondence,
    eval_field,
    restrict_boundary,
    verify_exactness,
    verify_sequence,
)
from splinecomplex.exactrank import _PRIMES, annihilates, fraction_rank, modular_rank, rational_kernel_vector
from splinecomplex.tensormesh import build_tensor_mesh

F = Fraction
KV_HALF = KnotVector(2, (F(0), F(1, 2), F(1)), (3, 1, 3))


def random_kv(rng, degree, nspans):
    cuts = sorted(rng.choice(np.arange(1, 16), size=nspans - 1, replace=False))
    bp = [F(0)] + [F(int(c), 16) for c in cuts] + [F(1)]
    mult = [degree + 1] + [1] * (nspans - 1) + [degree + 1]
    return KnotVector(degree, tuple(bp), tuple(mult))


def test_tensor_mesh_1d_census():
    mesh = build_tensor_mesh([KV_HALF])
    # two positive spans plus one zero-length boundary span per side
    assert mesh.nspans == (4,)
    lengths = mesh.span_lengths(0)
    assert lengths.count(0) == 2


def test_tensor_mesh_2d_counts_p1():
    kv = KnotVector.uniform(1, 2)
    mesh = build_tensor_mesh([kv, kv])
    assert mesh.num_vertices == 9
    assert mesh.num_edges(0) + mesh.num_edges(1) == 12
    assert mesh.num_cells == 4
    assert mesh.euler_2d()


def test_euler_identity_random():
    rng = np.random.default_rng(10)
    for _ in range(10):
        kvs = [random_kv(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(2)]
        assert build_tensor_mesh(kvs).euler_2d()


def test_complex_dims_3d():
    kv = KnotVector.uniform(3, 1)  # Bernstein, n = 4
    cx = build_complex([kv, kv, kv])
    assert cx.space_dim(0) == 64
    assert cx.space_dim(1) == 3 * 3 * 4 * 4
    assert cx.space_dim(3) == 27


def test_lowest_order_nedelec_counts():
    # p=1 on a uniform mesh: one dof per edge, like first-family hexahedral elements
    kv = KnotVector.uniform(1, 3)
    cx = build_complex([kv, kv, kv])
    mesh = cx.mesh
    assert cx.space_dim(1) == sum(mesh.num_edges(k) for k in range(3))
    assert cx.space_dim(0) == mesh.num_vertices


def test_alternating_dim_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ps = rng.integers(2, 5, size=3)
        kvs = [KnotVector.uniform(int(p), max(1, int(rng.integers(4, 8)) - int(p))) for p in ps]
        cx = build_complex(kvs)
        d0, d1, d2, d3 = (cx.space_dim(j) for j in (0, 1, 2, 3))
        assert d0 - d1 + d2 - d3 == 1


def test_dd_zero_and_entries():
    rng = np.random.default_rng(12)
    kvs = [random_kv(rng, 3, 3), random_kv(rng, 2, 2), random_kv(rng, 2, 3)]
    cx = build_complex(kvs)
    grad, curl, div = (cx.operators[k] for k in ("grad", "curl", "div"))
    assert (curl @ grad).nnz == 0
    assert (div @ curl).nnz == 0
    for A in (grad, curl, div):
        assert set(np.unique(A.tocoo().data)) <= {-1, 1}
    # grad columns touch at most 2*3 rows
    assert max(np.diff(grad.tocsc().indptr)) <= 6
    # grad of a constant vanishes
    assert np.all(grad @ np.ones(cx.space_dim(0), dtype=np.int64) == 0)


def test_exactness_small_3d():
    kv = KnotVector.uniform(3, 1)
    cx = build_complex([kv, kv, kv])
    rep = verify_exactness(cx)
    assert rep.passed and rep.certified
    assert rep.ranks["d0"] == 63  # rank(grad) = dim X0 - 1
    n = 4
    assert rep.ranks["d2"] == (n - 1) ** 3  # rank(div) = dim X3
    dim_ker_div = 2 * n**3 - 3 * n**2 + 1
    dims = [cx.space_dim(j) for j in range(4)]
    assert dims[2] - rep.ranks["d2"] == dim_ker_div


def test_exactness_randomized_2d_3d():
    rng = np.random.default_rng(13)
    for _ in range(6):
        d = int(rng.integers(2, 4))
        kvs = []
        for _ in range(d):
            p = int(rng.integers(2, 5))
            spans = int(rng.integers(2, 4))
            kvs.append(random_kv(rng, p, spans))
        rep = verify_exactness(build_complex(kvs))
        assert rep.passed, rep.identities
        assert rep.certified


def test_exactness_with_full_bc():
    kv = KnotVector.uniform(2, 3)
    cx = build_complex([kv, kv, kv])
    faces = [(a, s) for a in range(3) for s in (0, 1)]
    rcx = restrict_boundary(cx, faces)
    rep = verify_exactness(rcx)
    assert rep.passed, rep.identities
    # rank(div restricted) = dim X3 - 1
    assert rep.ranks["d2"] == rcx.space_dim(3) - 1


def test_restrict_boundary_1d_dirichlet():
    kv = KnotVector(2, (F(0), F(1, 3), F(2, 3), F(1)), (3, 1, 1, 3))
    assert kv.n == 5
    cx = build_complex([kv])
    rcx = restrict_boundary(cx, [(0, 0), (0, 1)])
    assert rcx.space_dim(0) == 3


def test_restrict_no_faces_identity():
    kv = KnotVector.uniform(2, 2)
    cx = build_complex([kv, kv])
    rcx = restrict_boundary(cx, [])
    assert rcx.space_dim(0) == cx.space_dim(0)
    assert (rcx.operators["grad"] - cx.operators["grad"]).nnz == 0


def test_modular_rank_agrees_with_fractions():
    rng = np.random.default_rng(14)
    for _ in range(10):
        A = rng.integers(-3, 4, size=(12, 17))
        assert modular_rank(A) == fraction_rank(A)


@st.composite
def integer_matrices(draw):
    """Rank-deficient products of thin integer factors, with zero and
    repeated rows and columns mixed in."""
    m, n, k = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 4))

    def factor(rows, cols):
        entries = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
        return np.array(entries, dtype=np.int64).reshape(rows, cols)

    A = factor(m, k) @ factor(k, n)
    for axis in (0, 1):
        # -1 appends a zero line, i >= 0 repeats line i
        picks = draw(st.lists(st.integers(-1, A.shape[axis] - 1), max_size=3))
        extra = [np.take(A, [i], axis) * (i >= 0) for i in picks]
        A = np.concatenate([A, *extra], axis=axis)
        order = draw(st.permutations(range(A.shape[axis])))
        A = np.take(A, order, axis)
    return A


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_modular_rank_property(A):
    rank = fraction_rank(A)
    assert modular_rank(A) == rank
    r, pivots = modular_rank(sp.csr_matrix(A), return_pivots=True)
    assert r == rank and len(set(pivots)) == rank
    assert fraction_rank(A[:, pivots]) == rank


def test_modular_rank_rejects_non_integers():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    for M in (A, sp.csr_matrix(A)):
        with pytest.raises(ValueError):
            modular_rank(M)
    assert modular_rank(sp.csr_matrix(2 * A)) == 2


def test_modular_rank_drops_zeros_mod_p():
    # an explicit stored zero is no pivot
    A = sp.csr_matrix((np.array([0, 1, 0]), (np.array([0, 1, 1]), np.array([0, 0, 1]))), shape=(2, 2))
    assert A.nnz == 3
    assert modular_rank(A) == 1
    # p and -p vanish mod p but not mod another prime
    p, q = _PRIMES[:2]
    B = np.array([[p, 1], [-p, 1], [2 * p, 0]])
    for M in (B, sp.csr_matrix(B)):
        assert modular_rank(M, p, return_pivots=True) == (1, [1])
        assert modular_rank(M, q) == 2


def test_rational_kernel_vector():
    # kernel spanned by (5, -2, 1)
    A = np.array([[2, 4, -2], [1, 3, 1]])
    for M in (A, sp.csr_matrix(A)):
        x = rational_kernel_vector(M)
        assert x is not None and annihilates(M, x)
        assert [5 * v for v in x] == [x[0] * v for v in (5, -2, 1)]
    # a two-dimensional rational kernel
    A = np.array([[3, 1, 0, 2], [0, 2, 5, 1]])
    x = rational_kernel_vector(sp.csr_matrix(A))
    assert any(v != 0 for v in x) and all(v == 0 for v in A.astype(object) @ x)
    # full column rank
    assert rational_kernel_vector(np.array([[1, 2], [3, 4], [5, 6]])) is None
    # verify_sequence falls back to it when the constants are not in the kernel
    rep = verify_sequence([sp.csr_matrix([[2, -1]])], [2, 1])
    assert rep.identities["d0(const)=0"] and rep.passed and rep.certified


def test_eval_field_partition_of_unity():
    kv = random_kv(np.random.default_rng(15), 3, 3)
    cx = build_complex([kv, kv])
    pts = np.random.default_rng(16).uniform(0, 1, size=(20, 2))
    vals = eval_field(cx.spaces[0], np.ones(cx.space_dim(0)), pts)
    npt.assert_allclose(vals, 1.0, atol=1e-12)


def test_eval_field_single_basis():
    kv = KnotVector.uniform(2, 2)
    cx = build_complex([kv, kv])
    X0 = cx.spaces[0]
    c = np.zeros(X0.dim)
    c[5] = 1.0
    pts = np.array([[0.3, 0.6], [0.1, 0.9]])
    direct = X0.eval(c, pts)
    anchors = X0.anchor_tuples()
    from splinecomplex.bspline import eval_local

    a = anchors[5]
    manual = eval_local(a[0].local, 2, pts[:, 0]) * eval_local(a[1].local, 2, pts[:, 1])
    npt.assert_allclose(direct, manual, atol=1e-14)


def test_grad_eval_consistency():
    # grad of an X0 field evaluated via Dgrad coefficients matches FD gradient
    rng = np.random.default_rng(17)
    kv = KnotVector.uniform(3, 2)
    cx = build_complex([kv, kv, kv])
    c = rng.standard_normal(cx.space_dim(0))
    gc = cx.operators["grad"] @ c
    pts = rng.uniform(0.05, 0.95, size=(20, 3))
    grad_vals = eval_field(cx.spaces[1], gc, pts)
    h = 1e-6
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd = (
            eval_field(cx.spaces[0], c, pts + shift) - eval_field(cx.spaces[0], c, pts - shift)
        ) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        npt.assert_allclose(grad_vals[:, axis], fd, atol=2e-6 * scale)


def test_entity_correspondence_odd():
    kv = KnotVector.uniform(3, 2)
    cx = build_complex([kv, kv, kv])
    rep = entity_correspondence(cx)
    assert rep.applicable and rep.passed
    assert rep.bijections["X1"][0] == "edges"
    mesh = cx.mesh
    assert cx.space_dim(1) == sum(mesh.num_edges(k) for k in range(3))


def test_entity_correspondence_even():
    kv = KnotVector.uniform(2, 3)
    cx = build_complex([kv, kv, kv])
    rep = entity_correspondence(cx)
    assert rep.applicable and rep.passed, rep
    assert rep.bijections["X3"][0] == "interior vertices"


def test_entity_correspondence_mixed_not_applicable():
    cx = build_complex([KnotVector.uniform(3, 2), KnotVector.uniform(2, 2), KnotVector.uniform(3, 2)])
    rep = entity_correspondence(cx)
    assert not rep.applicable


def test_incidence_property_random():
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        kvs = [random_kv(rng, p, int(rng.integers(2, 4))) for _ in range(d)]
        rep = entity_correspondence(build_complex(kvs))
        assert rep.applicable and rep.passed, (p, d, rep)
