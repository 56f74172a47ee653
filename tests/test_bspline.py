"""Univariate kernel tests: exact oracles first, float paths checked against them."""

import bisect
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splinecomplex.bspline import (
    KnotRows,
    KnotVector,
    _refine,
    derivative_decomposition,
    eval_basis,
    eval_basis_deriv,
    grad_matrix_1d,
    insert_knot,
    scaled_eval,
)

F = Fraction


# -- independent oracle: textbook Cox-de Boor recursion over exact rationals --


def cox_de_boor_exact(knots, p, i, x):
    """Direct recursive definition with Fractions; 0/0 terms are zero.

    Spans are half-open, with the span ending at 1 closed on the right.
    """
    if p == 0:
        left, right = knots[i], knots[i + 1]
        if left <= x < right:
            return F(1)
        if x == right == 1 and left < right:
            return F(1)
        return F(0)
    total = F(0)
    d1 = knots[i + p] - knots[i]
    if d1 > 0:
        total += (x - knots[i]) / d1 * cox_de_boor_exact(knots, p - 1, i, x)
    d2 = knots[i + p + 1] - knots[i + 1]
    if d2 > 0:
        total += (knots[i + p + 1] - x) / d2 * cox_de_boor_exact(knots, p - 1, i + 1, x)
    return total


def random_knot_vector(rng, degree=None, max_spans=5):
    p = degree if degree is not None else rng.integers(1, 5)
    nb = rng.integers(1, max_spans + 1)
    pool = sorted(rng.choice(np.arange(1, 16), size=nb, replace=False))
    bp = [F(0)] + [F(int(v), 16) for v in pool] + [F(1)]
    mult = [p + 1] + [int(rng.integers(1, p + 1)) for _ in pool] + [p + 1]
    return KnotVector(int(p), tuple(bp), tuple(mult))


KV_HALF = KnotVector(2, (F(0), F(1, 2), F(1)), (3, 1, 3))
BERNSTEIN2 = KnotVector(2, (F(0), F(1)), (3, 3))
BERNSTEIN3 = KnotVector(3, (F(0), F(1)), (4, 4))


def test_bernstein_values_at_half():
    vals = eval_basis(BERNSTEIN2, 0.5)[0]
    npt.assert_allclose(vals, [0.25, 0.5, 0.25], atol=1e-15)


def test_boundary_interpolation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        kv = random_knot_vector(rng)
        v0 = eval_basis(kv, 0.0)[0]
        v1 = eval_basis(kv, 1.0)[0]
        expected0 = np.zeros(kv.n)
        expected0[0] = 1.0
        expected1 = np.zeros(kv.n)
        expected1[-1] = 1.0
        npt.assert_allclose(v0, expected0, atol=1e-14)
        npt.assert_allclose(v1, expected1, atol=1e-14)


def test_eval_against_exact_recursion():
    # frozen instance of the [DERIVED] example: kv={0,0,0,1/2,1,1,1}, p=2, x=0.3
    ks = KV_HALF.knots
    exact = [cox_de_boor_exact(ks, 2, i, F(3, 10)) for i in range(KV_HALF.n)]
    assert exact == [F(4, 25), F(33, 50), F(9, 50), F(0)]
    npt.assert_allclose(eval_basis(KV_HALF, 0.3)[0], [float(e) for e in exact], atol=1e-15)

    rng = np.random.default_rng(1)
    for _ in range(8):
        kv = random_knot_vector(rng)
        ks = kv.knots
        for xnum in rng.integers(0, 33, size=4):
            x = F(int(xnum), 32)
            exact = [float(cox_de_boor_exact(ks, kv.degree, i, x)) for i in range(kv.n)]
            npt.assert_allclose(eval_basis(kv, float(x))[0], exact, atol=1e-13)


def test_partition_of_unity_and_nonnegative():
    rng = np.random.default_rng(2)
    xs = np.linspace(0.0, 1.0, 97)
    for _ in range(10):
        kv = random_knot_vector(rng)
        vals = eval_basis(kv, xs)
        assert np.all(vals >= -1e-14)
        npt.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)


def test_local_support():
    rng = np.random.default_rng(3)
    kv = random_knot_vector(rng, degree=3)
    xs = np.linspace(0.0, 1.0, 201)
    vals = eval_basis(kv, xs)
    ks = kv.knots
    for i in range(kv.n):
        lo, hi = float(ks[i]), float(ks[i + 3 + 1])
        outside = (xs < lo) | (xs > hi)
        npt.assert_allclose(vals[outside, i], 0.0, atol=1e-14)


def test_eval_domain_error():
    with pytest.raises(ValueError):
        eval_basis(BERNSTEIN2, 1.5)
    with pytest.raises(ValueError):
        eval_basis(BERNSTEIN2, -0.1)


def test_derived_knot_vector():
    d = KV_HALF.derived()
    assert d.degree == 1
    assert d.knots == (F(0), F(0), F(1, 2), F(1), F(1))
    b = BERNSTEIN2.derived()
    assert b.knots == (F(0), F(0), F(1), F(1))
    rng = np.random.default_rng(4)
    count = 0
    while count < 50:
        kv = random_knot_vector(rng)
        if any(m > kv.degree for m in kv.internal_multiplicities):
            with pytest.raises(ValueError):
                kv.derived()
            continue
        assert kv.derived().n == kv.n - 1
        count += 1


def test_anchors_positions():
    anchors = KV_HALF.anchors()
    assert [a.position for a in anchors] == [F(0), F(1, 4), F(3, 4), F(1)]
    # p=3: anchors at the knots of the rendered partition (with repetitions)
    kv3 = KnotVector(3, (F(0), F(1, 2), F(1)), (4, 1, 4))
    assert [a.position for a in kv3.anchors()] == kv3.rendered_lines()
    # p=2: anchors at midpoints of rendered spans, including zero-width ones
    lines = KV_HALF.rendered_lines()
    mids = [(a + b) / 2 for a, b in zip(lines, lines[1:])]
    assert [a.position for a in KV_HALF.anchors()] == mids


def test_greville_sites():
    assert KV_HALF.greville() == [F(0), F(1, 4), F(3, 4), F(1)]
    assert BERNSTEIN3.greville() == [F(0), F(1, 3), F(2, 3), F(1)]
    # repeated internal knot of multiplicity p pins a Greville site on it
    kv = KnotVector(2, (F(0), F(1, 2), F(1)), (3, 2, 3))
    assert F(1, 2) in kv.greville()
    rng = np.random.default_rng(5)
    for _ in range(10):
        kv = random_knot_vector(rng)
        if any(m > kv.degree for m in kv.internal_multiplicities):
            continue
        g = kv.greville()
        assert all(b > a for a, b in zip(g, g[1:]))


def test_insert_knot_curve_invariance():
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(BERNSTEIN2.n)
    kv2, c2 = insert_knot(BERNSTEIN2, coeffs, F(1, 2))
    xs = np.linspace(0, 1, 100)
    before = eval_basis(BERNSTEIN2, xs) @ coeffs
    after = eval_basis(kv2, xs) @ c2
    npt.assert_allclose(after, before, atol=1e-12)

    for _ in range(6):
        kv = random_knot_vector(rng)
        c = rng.standard_normal(kv.n)
        xbar = F(int(rng.integers(1, 16)), 16)
        if kv.multiplicity_of(xbar) >= kv.degree + 1:
            continue
        kvr, cr = insert_knot(kv, c, xbar)
        assert kvr.n == kv.n + 1
        before = eval_basis(kv, xs) @ c
        after = eval_basis(kvr, xs) @ cr
        npt.assert_allclose(after, before, atol=1e-12)


def test_insert_existing_knot_reduces_continuity():
    kv, c = insert_knot(KV_HALF, np.ones(KV_HALF.n), F(1, 2))
    assert kv.multiplicity_of(F(1, 2)) == 2
    with pytest.raises(ValueError):
        kv2, c2 = insert_knot(kv, c, F(1, 2))
        insert_knot(kv2, c2, F(1, 2))


def test_insert_alpha_pattern():
    # frozen from the pointwise-equality oracle: inserting 1/4 into KV_HALF
    coeffs = np.array([1.0, 0.0, 0.0, 0.0])
    kvr, cr = insert_knot(KV_HALF, coeffs, F(1, 4))
    xs = np.linspace(0, 1, 150)
    npt.assert_allclose(
        eval_basis(kvr, xs) @ cr, eval_basis(KV_HALF, xs) @ coeffs, atol=1e-13
    )
    npt.assert_allclose(cr, [1.0, 0.5, 0.0, 0.0, 0.0], atol=1e-15)


def test_insert_knot_keeps_integer_coefficients_exact():
    # integer coefficients are not truncated to the integer dtype
    kvr, cr = insert_knot(KV_HALF, np.array([1, 0, 0, 0]), F(1, 4))
    assert cr.dtype == float
    npt.assert_array_equal(cr, [1.0, 0.5, 0.0, 0.0, 0.0])
    xs = np.linspace(0, 1, 150)
    npt.assert_allclose(eval_basis(kvr, xs) @ cr, eval_basis(KV_HALF, xs) @ [1, 0, 0, 0], atol=1e-13)


@st.composite
def refinements(draw):
    """A window of ranks of degree 0-4, repeated knots allowed, on line
    values in [0, 1] of mixed denominators, and 1-3 inserted ranks over its
    closed support, repeats and existing knots allowed."""
    cuts = draw(st.lists(st.tuples(st.integers(1, 15), st.sampled_from([3, 10, 16, 21])), min_size=1, max_size=6))
    values = [F(0), *sorted({F(c % d or 1, d) for c, d in cuts}), F(1)]
    q = draw(st.integers(0, 4))
    rank = st.integers(0, len(values) - 1)
    window = sorted(draw(st.lists(rank, min_size=q + 2, max_size=q + 2)))
    assume(window[-1] > window[0])  # a positive support
    inserted = draw(st.lists(st.integers(window[0], window[-1]), min_size=1, max_size=3))
    return window, inserted, values


def fraction_refine(window, inserted, values) -> dict:
    """Reference for ``_refine``: Boehm's insertion with a normalised
    Fraction coefficient at every step, {window: Fraction}."""
    q = len(window) - 2
    chain = {tuple(window): F(1)}
    for z in inserted:
        zv, new = values[z], {}
        for t, c in chain.items():
            if not t[0] < z < t[-1]:
                new[t] = new.get(t, F(0)) + c
                continue
            pos = bisect.bisect_left(t, z)
            refined = t[:pos] + (z,) + t[pos:]
            a = 1 if z >= t[q] else (zv - values[t[0]]) / (values[t[q]] - values[t[0]])
            b = 1 if z <= t[1] else (values[t[q + 1]] - zv) / (values[t[q + 1]] - values[t[1]])
            for w, s in ((refined[: q + 2], a), (refined[1:], b)):
                if s != 0 and w[-1] > w[0]:
                    new[w] = new.get(w, F(0)) + c * s
        chain = new
    return chain


def refine_fractions(window, inserted, values) -> dict:
    """``_refine`` as {window: Fraction}, one Fraction per coefficient."""
    nums, den = _refine(window, inserted, values)
    assert type(den) is int and den > 0 and all(type(n) is int for n in nums.values())
    return {w: F(n, den) for w, n in nums.items()}


@settings(max_examples=100, deadline=None)
@given(refinements())
def test_refine_splits_a_b_spline_exactly(case):
    window, inserted, values = case
    q = len(window) - 2
    chain = refine_fractions(window, inserted, values)
    x = np.linspace(0, 1, 50)
    lhs = scaled_eval(KnotRows.from_ranks(np.array([window]), values), q, "B", x)[:, 0]
    rows = KnotRows.from_ranks(np.array(list(chain)), values)
    rhs = scaled_eval(rows, q, "B", x) @ np.array([float(c) for c in chain.values()])
    npt.assert_allclose(rhs, lhs, atol=1e-13, rtol=0)


@settings(max_examples=200, deadline=None)
@given(refinements())
def test_integer_refine_equals_the_fraction_reference(case):
    """Integer numerators over one common denominator give the reference's
    coefficients in its window order, on Fraction values and on the same
    values as integers over their common denominator."""
    window, inserted, values = case
    want = fraction_refine(window, inserted, values)
    got = refine_fractions(window, inserted, values)
    assert got == want and list(got) == list(want)
    scale = math.lcm(*(v.denominator for v in values))
    assert refine_fractions(window, inserted, [int(v * scale) for v in values]) == want


def test_insert_knot_matches_the_fraction_reference():
    """``insert_knot`` gives bitwise the coefficients of the Fraction
    reference rounded once per term, on new and on existing knots."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        kv = random_knot_vector(rng)
        coeffs = rng.standard_normal(kv.n)
        xbar = F(int(rng.integers(1, 16)), 16)
        if kv.multiplicity_of(xbar) >= kv.degree + 1:
            continue
        got_kv, got = insert_knot(kv, coeffs, xbar)
        p, values = kv.degree, sorted({*kv.breakpoints, xbar})
        old, z = [values.index(k) for k in kv.knots], values.index(xbar)
        knots = sorted((*old, z))
        index = {tuple(knots[j : j + p + 2]): j for j in range(kv.n + 1)}
        want = np.zeros(kv.n + 1)
        for i in range(kv.n):
            for w, c in fraction_refine(old[i : i + p + 2], (z,), values).items():
                want[index[w]] += float(c) * coeffs[i]
        assert np.array_equal(got, want) and got_kv.knots == tuple(values[r] for r in knots)
        checked += 1
    assert checked >= 30


def test_derivative_decomposition_bernstein_middle():
    anchors = BERNSTEIN2.anchors()
    (lkv_m, c_m), (lkv_p, c_p) = derivative_decomposition(anchors[1].local, 2)
    assert lkv_m == (F(0), F(0), F(1)) and c_m == 2
    assert lkv_p == (F(0), F(1), F(1)) and c_p == -2


def test_derivative_decomposition_boundary_zero_term():
    first = BERNSTEIN2.anchors()[0]
    (lkv_m, c_m), (lkv_p, c_p) = derivative_decomposition(first.local, 2)
    assert lkv_m is None and c_m == 0
    assert lkv_p is not None


def test_derivative_vs_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(5):
        kv = random_knot_vector(rng, degree=3)
        breaks = set(float(b) for b in kv.breakpoints)
        ks = kv.knots
        pts = [x for x in rng.uniform(0.01, 0.99, 40) if min(abs(x - b) for b in breaks) > 1e-3][:20]
        pts = np.array(pts)
        for i in range(kv.n):
            local = ks[i : i + kv.degree + 2]
            dec = derivative_decomposition(local, kv.degree)
            vals = np.zeros(pts.size)
            for lkv, coeff in dec:
                if lkv is not None:
                    vals += float(coeff) * scaled_eval(lkv, kv.degree - 1, "B", pts)
            fd = (scaled_eval(local, kv.degree, "B", pts + h) - scaled_eval(local, kv.degree, "B", pts - h)) / (2 * h)
            scale = np.maximum(np.abs(fd), 1.0)
            npt.assert_allclose(vals, fd, atol=2e-6 * scale.max())
            direct = scaled_eval(local, kv.degree, "B", pts, 1)
            npt.assert_allclose(vals, direct, atol=1e-12)


def test_curry_scaled_integrates_to_one():
    # quadrature oracle: high-order Gauss on each span of the support
    from numpy.polynomial.legendre import leggauss

    rng = np.random.default_rng(8)
    gx, gw = leggauss(12)
    for _ in range(6):
        kv = random_knot_vector(rng)
        p = kv.degree
        if p < 1:
            continue
        ks = kv.knots
        for i in range(kv.n - 1):
            local = ks[i + 1 : i + p + 2]  # p+1 knots, degree p-1 function
            total = 0.0
            for a, b in zip(local, local[1:]):
                fa, fb = float(a), float(b)
                if fb <= fa:
                    continue
                x = 0.5 * (fb - fa) * gx + 0.5 * (fa + fb)
                total += 0.5 * (fb - fa) * np.sum(gw * scaled_eval(local, p - 1, "D", x))
            npt.assert_allclose(total, 1.0, atol=1e-12)


def test_curry_scaled_hat():
    val = scaled_eval((F(0), F(0), F(1)), 1, "D", 0.0)
    npt.assert_allclose(val, 2.0)


def test_grad_matrix_matches_decomposition():
    rng = np.random.default_rng(9)
    xs = np.linspace(0, 1, 57)
    for _ in range(6):
        kv = random_knot_vector(rng)
        if any(m > kv.degree for m in kv.internal_multiplicities):
            continue
        G = grad_matrix_1d(kv).toarray()
        c = rng.standard_normal(kv.n)
        dkv = kv.derived()
        p = kv.degree
        dks = dkv.knots
        # target basis with Curry-Schoenberg scaling
        dvals = np.column_stack(
            [
                p / float(dks[i + p + 1 - 1] - dks[i]) * scaled_eval(dks[i : i + p + 1], p - 1, "B", xs)
                for i in range(dkv.n)
            ]
        )
        lhs = eval_basis_deriv(kv, xs) @ c
        rhs = dvals @ (G @ c)
        npt.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(lhs).max()))


# -- batched kernel: property test against the per-function path and the exact oracle --

INTERIOR = [F(k, 12) for k in range(1, 12)]


@st.composite
def open_knot_vectors(draw):
    q = draw(st.integers(0, 5))
    bp = sorted(draw(st.sets(st.sampled_from(INTERIOR), max_size=4)))
    mult = [draw(st.integers(1, q + 1)) for _ in bp]
    kv = KnotVector(q, (F(0), *bp, F(1)), (q + 1, *mult, q + 1))
    extra = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    x = np.array([0.0, 1.0] + [float(b) for b in bp] + extra)
    return kv, x


def _scalar_recursion(local, q, x):
    """Reference: the one-function float recursion, level by level."""
    t = [float(k) for k in local]
    vals = np.zeros((q + 1, x.size))
    for j in range(q + 1):
        if t[j + 1] > t[j]:
            vals[j, (x >= t[j]) & ((x < t[j + 1]) | ((x == t[j + 1]) & (t[j + 1] == 1.0)))] = 1.0
    for qq in range(1, q + 1):
        nxt = np.zeros((q + 1 - qq, x.size))
        for j in range(q + 1 - qq):
            if t[j + qq] > t[j]:
                nxt[j] += (x - t[j]) / (t[j + qq] - t[j]) * vals[j]
            if t[j + qq + 1] > t[j + 1]:
                nxt[j] += (t[j + qq + 1] - x) / (t[j + qq + 1] - t[j + 1]) * vals[j + 1]
        vals = nxt
    return vals[0]


def _scalar_deriv(local, q, x):
    """Reference: the two-term derivative with exactly rounded lengths."""
    out = np.zeros(x.size)
    if q > 0 and local[q] > local[0]:
        out += q / float(local[q] - local[0]) * _scalar_recursion(local[:-1], q - 1, x)
    if q > 0 and local[q + 1] > local[1]:
        out -= q / float(local[q + 1] - local[1]) * _scalar_recursion(local[1:], q - 1, x)
    return out


def _exact_deriv(t, q, x):
    """d/dx N[t] exactly, by the two-term decomposition over rationals."""
    if q == 0:
        return F(0)
    out = F(0)
    if t[q] > t[0]:
        out += F(q) / (t[q] - t[0]) * cox_de_boor_exact(t[:-1], q - 1, 0, x)
    if t[q + 1] > t[1]:
        out -= F(q) / (t[q + 1] - t[1]) * cox_de_boor_exact(t[1:], q - 1, 0, x)
    return out


@settings(max_examples=60, deadline=None)
@given(open_knot_vectors())
def test_batched_kernel_matches_per_function_and_exact(case):
    kv, x = case
    q, ks = kv.degree, kv.knots
    rows = KnotRows.from_exact(ks[i : i + q + 2] for i in range(kv.n))
    vals = scaled_eval(rows, q, "B", x)
    ders = scaled_eval(rows, q, "B", x, 1)
    assert vals.shape == ders.shape == (x.size, kv.n)
    for i in range(kv.n):
        local = ks[i : i + q + 2]
        # batching changes no bit: same operations as the scalar recursion
        assert np.array_equal(vals[:, i], scaled_eval(local, q, "B", x))
        assert np.array_equal(ders[:, i], scaled_eval(local, q, "B", x, 1))
        assert np.array_equal(vals[:, i], _scalar_recursion(local, q, x))
        assert np.array_equal(ders[:, i], _scalar_deriv(local, q, x))
        # the float recursion is the exact one on the float-rounded knots
        t = [F(float(k)) for k in local]
        scale = max([1.0] + [q / float(b - a) for a, b in zip(local, local[q:]) if b > a])
        for xv, v, d in zip(x, vals[:, i], ders[:, i]):
            assert abs(v - float(cox_de_boor_exact(t, q, 0, F(xv)))) <= 1e-14
            assert abs(d - float(_exact_deriv(t, q, F(xv)))) <= 1e-14 * scale
