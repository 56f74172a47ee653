"""Univariate B-spline kernel with exact rational knots.

Knot vectors store breakpoints as :class:`fractions.Fraction` so that local
knot vectors, mesh coordinates and derivative targets can be compared
exactly.  Evaluation converts to floating point once, into :class:`KnotRows`,
and one vectorized Cox-de Boor recursion evaluates all rows at all points.

Knot insertion (Boehm's rule on line ranks, :func:`_refine`) and the drawing
of breakpoints as lines (:func:`_render_lines`) are stated here only; the
T-mesh and T-spline layers call them.

Conventions:

* knot vectors are open ("p-open"): first/last breakpoints are 0 and 1 with
  multiplicity exactly ``p + 1``;
* piecewise-constant spans are half-open ``[xi_i, xi_{i+1})``, except that a
  span ending at 1 is closed on the right, so the basis is a partition of
  unity on the closed interval ``[0, 1]`` and right-continuous at internal
  breakpoints;
* 0/0 terms in the Cox-de Boor recursion evaluate to 0.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "KnotVector",
    "KnotRows",
    "Anchor1D",
    "as_fraction",
    "scaled_eval",
    "derivative_decomposition",
    "eval_basis",
    "eval_basis_deriv",
    "insert_knot",
    "grad_matrix_1d",
]

ZERO = Fraction(0)


def as_fraction(x) -> Fraction:
    """Convert ints, strings like ``"1/4"`` and exact binary floats to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Anchor1D:
    """Anchor of a univariate B-spline: index, parametric position, local knots."""

    index: int
    position: Fraction
    local: tuple  # p+2 knots, the support of the associated basis function


@dataclass(frozen=True)
class KnotVector:
    """A p-open knot vector on [0, 1] with exact rational breakpoints."""

    degree: int
    breakpoints: tuple
    multiplicities: tuple

    def __post_init__(self):
        p = self.degree
        bp = tuple(as_fraction(b) for b in self.breakpoints)
        mult = tuple(int(m) for m in self.multiplicities)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "multiplicities", mult)
        if p < 0:
            raise ValueError("degree must be non-negative")
        if len(bp) != len(mult) or len(bp) < 2:
            raise ValueError("breakpoints/multiplicities mismatch")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValueError("knot vector must span [0, 1]")
        if mult[0] != p + 1 or mult[-1] != p + 1:
            raise ValueError("boundary multiplicity must be exactly p+1 (open knot vector)")
        if any(m < 1 for m in mult):
            raise ValueError("multiplicities must be positive")
        if any(m > p + 1 for m in mult[1:-1]):
            raise ValueError("internal multiplicity exceeds p+1")
        if self.n < p + 1:
            raise ValueError("knot vector defines fewer than p+1 basis functions")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def uniform(cls, degree: int, nspans: int) -> "KnotVector":
        """Open knot vector with ``nspans`` equal spans and smooth interior."""
        if nspans < 1:
            raise ValueError("need at least one span")
        bp = [Fraction(i, nspans) for i in range(nspans + 1)]
        mult = [degree + 1] + [1] * (nspans - 1) + [degree + 1]
        return cls(degree, tuple(bp), tuple(mult))

    # -- basic queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Dimension of the spline space."""
        return sum(self.multiplicities) - self.degree - 1

    @property
    def knots(self) -> tuple:
        """Expanded knot list of length n + p + 1."""
        out = []
        for b, m in zip(self.breakpoints, self.multiplicities):
            out.extend([b] * m)
        return tuple(out)

    @cached_property
    def local_rows(self) -> "KnotRows":
        """Local knot vectors of all n basis functions, converted to floats once."""
        ks, p = self.knots, self.degree
        return KnotRows.from_exact(ks[i : i + p + 2] for i in range(self.n))

    @property
    def internal_multiplicities(self) -> tuple:
        return self.multiplicities[1:-1]

    def multiplicity_of(self, x) -> int:
        x = as_fraction(x)
        try:
            i = self.breakpoints.index(x)
        except ValueError:
            return 0
        return self.multiplicities[i]

    def rendered_lines(self) -> list:
        """Breakpoints expanded into drawn lines by :func:`_render_lines`."""
        return _render_lines(self.breakpoints, self.internal_multiplicities, self.degree)[0]

    # -- derived objects -------------------------------------------------------

    def derived(self) -> "KnotVector":
        """Knot vector of the derivative space: degree p-1, boundary
        multiplicities reduced by one, internal ones unchanged."""
        p = self.degree
        if p < 1:
            raise ValueError("cannot derive a degree-0 space")
        if any(m > p for m in self.internal_multiplicities):
            raise ValueError("discontinuous splines (internal multiplicity p+1) unsupported")
        mult = (p,) + self.internal_multiplicities + (p,)
        return KnotVector(p - 1, self.breakpoints, mult)

    def anchors(self) -> list:
        """One anchor per basis function, with its p+2-knot local vector."""
        p = self.degree
        ks = self.knots
        out = []
        for i in range(self.n):
            local = ks[i : i + p + 2]
            if p % 2 == 1:
                pos = local[(p + 1) // 2]
            else:
                pos = (local[p // 2] + local[p // 2 + 1]) / 2
            out.append(Anchor1D(i, pos, tuple(local)))
        return out

    def greville(self) -> list:
        """Greville sites (knot averages), one per basis function."""
        p = self.degree
        if p < 1:
            raise ValueError("Greville sites need degree >= 1")
        ks = self.knots
        return [sum(ks[i + 1 : i + p + 1], ZERO) / p for i in range(self.n)]

    def spans(self) -> list:
        """Nonempty spans as (left, right) pairs of Fractions."""
        return list(zip(self.breakpoints, self.breakpoints[1:]))


def _render_lines(breakpoints, interior_multiplicities, degree):
    """The drawn lines of one direction: the boundary breakpoints repeated
    floor(p/2)+1 times, the interior ones their multiplicity.  Returns the
    line values and, per breakpoint, the (first, last) index of its copies."""
    b = degree // 2 + 1
    values, ranges = [], []
    for bp, m in zip(breakpoints, (b, *interior_multiplicities, b)):
        ranges.append((len(values), len(values) + m - 1))
        values.extend([bp] * m)
    return values, ranges


# -- batched Cox-de Boor kernel ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class KnotRows:
    """Local knot vectors of N B-splines of one degree q, as floats.

    ``knots`` is (N, q+2).  ``left``, ``right`` and ``support`` are the
    lengths t[q] - t[0], t[q+1] - t[1] and t[q+1] - t[0], rounded from the
    exact differences; they scale derivatives and Curry-Schoenberg factors.
    """

    knots: np.ndarray
    left: np.ndarray
    right: np.ndarray
    support: np.ndarray

    @classmethod
    def from_exact(cls, rows) -> "KnotRows":
        """Convert a sequence of equal-length local knot vectors once."""
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("no local knot vectors")
        q = len(rows[0]) - 2
        if q < 0 or any(len(r) != q + 2 for r in rows):
            raise ValueError("local knot vectors must all have degree+2 entries")
        values = sorted(set().union(*rows))
        rank = {v: r for r, v in enumerate(values)}
        return cls.from_ranks(np.array([[rank[k] for k in r] for r in rows]), values)

    @classmethod
    def from_ranks(cls, ranks, values) -> "KnotRows":
        """Convert local knot vectors given as an (N, q+2) int array of
        indices into the increasing exact ``values``; each length is
        rounded from the exact difference of its pair of values, computed
        once per distinct pair."""
        n, q = len(values), ranks.shape[1] - 2
        pairs = ranks[:, [0, 1, 0]] * n + ranks[:, [q, q + 1, q + 1]]  # (left, right, support) as lo * n + hi
        uniq, inv = np.unique(pairs, return_inverse=True)
        lengths = np.array([float(values[hi] - values[lo]) for lo, hi in (divmod(c, n) for c in uniq.tolist())])
        left, right, support = lengths[inv.reshape(pairs.shape).T]
        return cls(np.array([float(v) for v in values])[ranks], left, right, support)

    @property
    def degree(self) -> int:
        return self.knots.shape[1] - 2

    def __len__(self) -> int:
        return self.knots.shape[0]

    def __getitem__(self, idx) -> "KnotRows":
        return KnotRows(self.knots[idx], self.left[idx], self.right[idx], self.support[idx])


def _cox_de_boor(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values (P, N) of the B-splines with float local knot rows t (N, q+2)
    at points x, shared (P,) or one column per row (P, N).

    Same operations per entry as the scalar recursion: half-open spans
    closed at 1, and a term with a zero denominator contributes 0.
    """
    q = t.shape[1] - 2
    x = x[:, None, None] if x.ndim == 1 else x[:, :, None]
    a, b = t[:, :-1], t[:, 1:]
    vals = ((x >= a) & ((x < b) | ((x == b) & (b == 1.0))) & (b > a)).astype(float)
    for qq in range(1, q + 1):
        m = q + 1 - qq
        t0, t1, tq, tq1 = t[:, :m], t[:, 1 : m + 1], t[:, qq : qq + m], t[:, qq + 1 : qq + 1 + m]
        dl, dr = tq - t0, tq1 - t1
        up = (x - t0) / np.where(dl > 0, dl, 1.0) * vals[:, :, :m]
        down = (tq1 - x) / np.where(dr > 0, dr, 1.0) * vals[:, :, 1:]
        vals = np.where(dl > 0, up, 0.0) + np.where(dr > 0, down, 0.0)
    return vals[:, :, 0]


def _rows_eval(rows: KnotRows, x: np.ndarray, deriv: int) -> np.ndarray:
    """Values or first derivatives (P, N); derivatives by the two-term
    decomposition into degree q-1 neighbours."""
    if deriv == 0:
        return _cox_de_boor(rows.knots, x)
    if deriv != 1:
        raise ValueError("only derivatives up to order 1 are tabulated")
    q = rows.degree
    if q == 0:
        return np.zeros((x.shape[0], len(rows)))
    lo = np.where(rows.left > 0, q / np.where(rows.left > 0, rows.left, 1.0), 0.0)
    hi = np.where(rows.right > 0, q / np.where(rows.right > 0, rows.right, 1.0), 0.0)
    return lo * _cox_de_boor(rows.knots[:, :-1], x) - hi * _cox_de_boor(rows.knots[:, 1:], x)


def _points(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


# -- single-function and full-basis evaluation ---------------------------------------


def scaled_eval(local_knots, degree: int, scaling: str, x, deriv: int = 0):
    """Evaluate basis factors with 'B' (plain) or 'D' (Curry-Schoenberg) scaling.

    ``local_knots`` is one local knot vector, giving shape (npts,), or a
    :class:`KnotRows` of N of them, giving (npts, N) from one batched
    evaluation; for rows, ``x`` may also be (npts, N), points per row.
    A 'D' factor of degree q is ``(q+1)/|support| * N[local_knots]``, the
    scaling under which univariate derivative matrices have +-1 entries.
    """
    single = not isinstance(local_knots, KnotRows)
    rows = KnotRows.from_exact([local_knots]) if single else local_knots
    if rows.degree != degree:
        raise ValueError("local knot vector must have degree+2 entries")
    if scaling not in ("B", "D"):
        raise ValueError(f"unknown scaling {scaling!r}")
    v = _rows_eval(rows, _points(x), deriv)
    if scaling == "D":
        v = (degree + 1) / rows.support * v
    return v[:, 0] if single else v


def derivative_decomposition(local_knots: Sequence, degree: int):
    """Split d/dx N[local_knots] into scaled lower-degree neighbours.

    Returns two (target_local_knots, coefficient) pairs with exact Fraction
    coefficients ``+p/|support^-|`` and ``-p/|support^+|``.  A vanishing
    support (missing neighbour at the domain ends) yields ``(None, 0)``.
    """
    p = degree
    t = [as_fraction(k) for k in local_knots]
    lo = t[:-1]
    hi = t[1:]
    if t[p] > t[0]:
        minus = (tuple(lo), Fraction(p, 1) / (t[p] - t[0]))
    else:
        minus = (None, ZERO)
    if t[p + 1] > t[1]:
        plus = (tuple(hi), -Fraction(p, 1) / (t[p + 1] - t[1]))
    else:
        plus = (None, ZERO)
    return minus, plus


def _domain_points(x) -> np.ndarray:
    x = _points(x)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("evaluation point outside [0, 1]")
    return x


def eval_basis(kv: KnotVector, x) -> np.ndarray:
    """All n basis values N_{i,p}(x); shape (npts, n).

    Raises ValueError for points outside [0, 1].
    """
    return scaled_eval(kv.local_rows, kv.degree, "B", _domain_points(x))


def eval_basis_deriv(kv: KnotVector, x) -> np.ndarray:
    """First derivatives of all n basis functions; shape (npts, n)."""
    return scaled_eval(kv.local_rows, kv.degree, "B", _domain_points(x), 1)


def _distinct(tabulate, x) -> np.ndarray:
    """``tabulate(u)``, u the distinct values of the points x, read back at
    every point along its second-to-last axis."""
    u, back = np.unique(x, return_inverse=True)
    return tabulate(u)[..., back, :]


def _tensor_rows(tables) -> np.ndarray:
    """Row-wise tensor product of per-direction tables (npts, n_d): the
    (npts, prod n_d) table of the tensor-product functions, direction 1
    fastest."""
    out = tables[0]
    for t in tables[1:]:
        out = (t[:, :, None] * out[:, None, :]).reshape(len(out), -1)
    return out


# -- knot insertion ---------------------------------------------------------------


def _refine(window, inserted, values) -> dict:
    """Boehm's knot insertion on one B-spline: N[window] = sum c_w N[w], c_w
    exact Fractions, over the windows w of the line refined by the
    ``inserted`` knots.  Windows and knots are ranks into the increasing exact
    ``values``; a term of zero coefficient or zero support is dropped."""
    q = len(window) - 2
    chain = {tuple(window): Fraction(1)}
    for z in inserted:
        zv, new = values[z], {}
        for t, c in chain.items():
            if not t[0] < z < t[-1]:
                new[t] = new.get(t, ZERO) + c
                continue
            pos = bisect.bisect_left(t, z)
            refined = t[:pos] + (z,) + t[pos:]
            a = 1 if z >= t[q] else (zv - values[t[0]]) / (values[t[q]] - values[t[0]])
            b = 1 if z <= t[1] else (values[t[q + 1]] - zv) / (values[t[q + 1]] - values[t[1]])
            for w, s in ((refined[: q + 2], a), (refined[1:], b)):
                if s != 0 and w[-1] > w[0]:
                    new[w] = new.get(w, ZERO) + c * s
        chain = new
    return chain


def insert_knot(kv: KnotVector, coeffs, xbar):
    """Insert the knot xbar, returning the refined knot vector and coefficients.

    Every basis function splits by :func:`_refine`, so the represented spline
    is unchanged pointwise; inserting an existing value reduces the continuity
    there by one.  The coefficients come back as floats (or complex).
    """
    xbar = as_fraction(xbar)
    if not (0 < xbar < 1):
        raise ValueError("inserted knot must lie in (0, 1)")
    p = kv.degree
    if kv.multiplicity_of(xbar) >= p + 1:
        raise ValueError("knot already has multiplicity p+1")
    n, coeffs = kv.n, np.asarray(coeffs)
    if coeffs.shape[0] != n:
        raise ValueError("coefficient vector has wrong length")
    values = sorted({*kv.breakpoints, xbar})
    rank = {v: r for r, v in enumerate(values)}
    old, z = [rank[k] for k in kv.knots], rank[xbar]
    knots = sorted((*old, z))
    index = {tuple(knots[j : j + p + 2]): j for j in range(n + 1)}
    new = np.zeros((n + 1,) + coeffs.shape[1:], dtype=np.result_type(coeffs, float))
    for i in range(n):
        for w, c in _refine(old[i : i + p + 2], (z,), values).items():
            new[index[w]] += float(c) * coeffs[i]
    new_kv = KnotVector(p, values, [knots.count(r) for r in range(len(values))])
    return new_kv, new


def grad_matrix_1d(kv: KnotVector):
    """Derivative matrix S_p(Xi) -> S_{p-1}(Xi') in the B/D-scaled bases.

    Column i carries +1 at row i-1 and -1 at row i; with the Curry-Schoenberg
    scaling of the target this is the signed edge-vertex incidence pattern.
    """
    import scipy.sparse as sp

    n = kv.n
    return sp.eye(n - 1, n, k=1, dtype=np.int64, format="csr") - sp.eye(n - 1, n, dtype=np.int64, format="csr")
