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
from splinecomplex.exactrank import (
    _PRIMES,
    _eliminate,
    _graph_rows,
    _int_csr,
    _rows,
    annihilates,
    modular_rank,
    rank_with_upper_bound,
)
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
    assert mesh.num_entities(0) == 9
    assert mesh.num_entities(1) == 12
    assert mesh.num_entities(2) == 4
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
    assert cx.space_dim(1) == mesh.num_entities(1)
    assert cx.space_dim(0) == mesh.num_entities(0)


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


def fraction_rank(A) -> int:
    """Exact rank by dense Fraction Gaussian elimination (small matrices only)."""
    M = [[Fraction(int(v)) for v in row] for row in np.asarray(A).tolist()]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        pv = M[rank][col]
        M[rank] = [v / pv for v in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def direct_rank(A, prime) -> int:
    """Rank over GF(prime) by eliminating every row, without contraction."""
    return _eliminate(_rows(_int_csr(A), prime), prime)


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
    assert modular_rank(sp.csr_matrix(A)) == rank


@st.composite
def incidence_like_matrices(draw):
    """Rows that are graph rows over the rationals (a, -a) or a single entry,
    graph rows only mod p (a, p - a), entries vanishing mod p, general and
    zero rows; returned as they are or transposed, with the prime p."""
    p = draw(st.sampled_from(_PRIMES))
    n = draw(st.integers(2, 8))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge", "single", "edge_mod_p", "vanishing", "general", "zero"]))
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a = draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1]))
        row = [0] * n
        if kind == "general":
            row = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        elif kind != "zero":
            row[i] = a
            if kind != "single":
                row[j] = {"edge": -a, "edge_mod_p": p - a, "vanishing": p * draw(st.sampled_from([-2, -1, 1]))}[kind]
        rows.append(row)
    A = np.array(rows, dtype=np.int64).reshape(-1, n)
    return p, A.T if draw(st.booleans()) else A


@settings(max_examples=200, deadline=None)
@given(incidence_like_matrices())
def test_contracted_rank_matches_direct_elimination(case):
    p, A = case
    for q in _PRIMES:
        assert modular_rank(A, q) == direct_rank(A, q)
        assert modular_rank(sp.csr_matrix(A), q) == direct_rank(A, q)
    # the residues mod p as integers of least absolute value: entries of at
    # most 3 in at most 8 columns keep every minor below 8.5**8 < p, so the
    # rank over the rationals equals the rank over GF(p)
    centered = A % p - p * (A % p > p // 2)
    assert modular_rank(A, p) == fraction_rank(centered)
    if np.abs(A).max(initial=0) <= 3:
        assert all(modular_rank(A, q) == fraction_rank(A) for q in _PRIMES)


def test_contracted_rank_matches_direct_elimination_on_t_spline_operators():
    from splinecomplex.benchmarks import square_raw_tmesh
    from splinecomplex.tspline import build_tspline_complex, derive_complex_meshes

    cx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(3), 3))
    for name, A in cx.operators_int.items():
        for q in _PRIMES:
            assert modular_rank(A, q) == direct_rank(A, q), (name, q)


def test_contracted_rank_matches_direct_elimination_on_3d_tensor_complex():
    cx = build_complex([KnotVector.uniform(2, 3), KnotVector.uniform(3, 2), KnotVector.uniform(1, 3)])
    for name, A in cx.operators.items():
        for q in _PRIMES:
            assert modular_rank(A, q) == direct_rank(A, q), (name, q)
    # four entries in every row of the curl; of its columns only edges on the
    # edges of the cube lie on two faces, so nearly all of it is core
    curl = _int_csr(cx.operators["curl"])
    assert not _graph_rows(curl, _PRIMES[0]).any()
    assert 0 < _graph_rows(curl.T.tocsr(), _PRIMES[0]).sum() < curl.shape[1] / 8


def test_annihilates_fast_path_agrees_with_python_integers():
    rng = np.random.default_rng(26)
    for _ in range(50):
        A = sp.random(9, 7, density=0.4, random_state=rng, data_rvs=lambda k: rng.integers(-3, 4, k)).tocsr()
        for x in (np.ones(7, dtype=np.int64), rng.integers(-5, 6, 7), np.zeros(7, dtype=np.uint8)):
            exact = not any(sum(int(a) * int(b) for a, b in zip(row, x)) for row in A.toarray())
            assert annihilates(A, x) == annihilates(A, x.astype(object)) == exact
    # 2 * 2**62 + 2 * 2**62 = 2**64 wraps to 0 in int64: the bound sends it
    # to the Python integers
    big = np.array([2**62, 2**62], dtype=np.int64)
    assert not annihilates(sp.csr_matrix([[2, 2]]), big)
    assert annihilates(sp.csr_matrix([[2, -2]]), big)
    assert annihilates(sp.csr_matrix([[1, -1]]), np.array([2**63 + 5, 2**63 + 5], dtype=np.uint64))


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
        assert modular_rank(M, p) == 1
        assert modular_rank(M, q) == 2


def test_constants_are_certified_by_the_all_ones_vector_alone():
    # the kernel of [[2, -1]] is spanned by (1, 2): a basis that is no
    # partition of unity fails d0(const)=0, whatever its kernel
    rep = verify_sequence([sp.csr_matrix([[2, -1]])], [2, 1])
    assert not rep.identities["d0(const)=0"] and not rep.passed
    assert rep.identities["rank(d0)=1"] and rep.certified


def test_a_rank_below_its_upper_bound_is_not_certified():
    # no prime reaches the bound 2 of a rank-one matrix: the best modular
    # rank comes back uncertified, and an injective d0 fails with it
    A = sp.csr_matrix([[1, 1], [1, 1]])
    assert rank_with_upper_bound(A, 2) == (1, False)
    rep = verify_sequence([A], [2, 2], with_bc=True)
    assert not rep.certified and not rep.identities["rank(d0)=2"]


@st.composite
def knot_vectors(draw):
    """A clamped knot vector of degree 1-3 on 1-3 spans with dyadic
    breakpoints and interior multiplicities up to the degree."""
    p = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.integers(1, 7), max_size=2, unique=True))
    mult = [draw(st.integers(1, p)) for _ in cuts]
    return KnotVector(p, (F(0), *(F(c, 8) for c in sorted(cuts)), F(1)), (p + 1, *mult, p + 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(knot_vectors(), min_size=d, max_size=d)))
def test_tensor_constants_are_the_all_ones_vector(kvs):
    # the tensor B-splines are a partition of unity on every knot vector:
    # the all-ones vector is in the kernel of grad, and the report says so
    cx = build_complex(kvs)
    assert annihilates(cx.operators["grad"], np.ones(cx.space_dim(0), dtype=np.int64))
    rep = verify_exactness(cx)
    const = {k: v for k, v in rep.identities.items() if k.endswith("d0(const)=0")}
    assert len(const) == (2 if len(kvs) == 2 else 1) and all(const.values()), rep.identities


def test_eval_field_partition_of_unity():
    kv = random_kv(np.random.default_rng(15), 3, 3)
    cx = build_complex([kv, kv])
    pts = np.random.default_rng(16).uniform(0, 1, size=(20, 2))
    vals = eval_field(cx.spaces[0], np.ones(cx.space_dim(0)), pts)
    npt.assert_allclose(vals, 1.0, atol=1e-12)


def test_eval_field_single_basis():
    # each X0 basis function is the product of its anchor's univariate
    # B-splines; unequal directions make the anchor order show
    cx = build_complex([KnotVector.uniform(2, 2), KnotVector.uniform(2, 3)])
    X0 = cx.spaces[0]
    pts = np.random.default_rng(5).uniform(0, 1, size=(30, 2))
    from splinecomplex.bspline import eval_local

    for i, a in enumerate(X0.anchor_tuples()):
        c = np.zeros(X0.dim)
        c[i] = 1.0
        manual = eval_local(a[0].local, 2, pts[:, 0]) * eval_local(a[1].local, 2, pts[:, 1])
        npt.assert_allclose(X0.eval(c, pts), manual, atol=1e-14)


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
    assert cx.space_dim(1) == cx.mesh.num_entities(1)


def test_entity_correspondence_even():
    kv = KnotVector.uniform(2, 3)
    cx = build_complex([kv, kv, kv])
    rep = entity_correspondence(cx)
    assert rep.applicable and rep.passed, rep
    assert rep.bijections["X3"][0] == "interior vertices"


def test_entity_correspondence_1d_covers_both_spaces():
    # the one rule also places X1 in 1D: on the cells for odd degree, on the
    # interior vertices for even degree
    for p, x0, x1 in ((3, "vertices", "cells"), (2, "cells", "interior vertices")):
        kv = KnotVector(p, (F(0), F(1, 3), F(1, 2), F(1)), (p + 1, 2, 1, p + 1))
        rep = entity_correspondence(build_complex([kv]))
        assert rep.applicable and rep.passed, rep
        assert (rep.bijections["X0"][0], rep.bijections["X1"][0]) == (x0, x1)


def test_entity_correspondence_mixed_not_applicable():
    cx = build_complex([KnotVector.uniform(3, 2), KnotVector.uniform(2, 2), KnotVector.uniform(3, 2)])
    rep = entity_correspondence(cx)
    assert not rep.applicable


@pytest.mark.parametrize("degrees", [(3, 1), (1, 3, 5), (2, 4), (4, 2, 2)])
def test_entity_correspondence_needs_one_parity_not_one_degree(degrees):
    # unequal degrees of one parity follow the same entity rule
    rep = entity_correspondence(build_complex([KnotVector.uniform(p, 3) for p in degrees]))
    assert rep.applicable and rep.passed, rep
    assert rep.kind == ("odd" if degrees[0] % 2 else "even")
    assert rep.operator_matches and all(rep.operator_matches.values())
    assert all(ok for _, ok in rep.bijections.values())


def test_entity_correspondence_mixed_parity_stays_mixed():
    rep = entity_correspondence(build_complex([KnotVector.uniform(2, 3), KnotVector.uniform(3, 3)]))
    assert rep.kind == "mixed" and not rep.applicable and not rep.passed


def test_incidence_property_random():
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        kvs = [random_kv(rng, p, int(rng.integers(2, 4))) for _ in range(d)]
        rep = entity_correspondence(build_complex(kvs))
        assert rep.applicable and rep.passed, (p, d, rep)


def test_incidence_property_random_degrees_of_one_parity():
    # per-direction degrees that differ but share one parity, e.g. (1, 3) or
    # (2, 4, 2), follow the entity rule of that parity
    rng = np.random.default_rng(23)
    unequal = 0
    for _ in range(10):
        choices = (1, 3) if rng.integers(2) else (2, 4)
        degrees = [int(rng.choice(choices)) for _ in range(int(rng.integers(2, 4)))]
        unequal += len(set(degrees)) > 1
        rep = entity_correspondence(build_complex([random_kv(rng, p, int(rng.integers(2, 4))) for p in degrees]))
        assert rep.applicable and rep.passed, (degrees, rep)
        assert rep.kind == ("odd" if degrees[0] % 2 else "even")
    assert unequal > 0
