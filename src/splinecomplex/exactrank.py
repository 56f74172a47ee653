"""Exact rank determination for integer matrices.

Ranks are certified without floating point:

* a lower bound comes from Gaussian elimination over GF(q) for a word-size
  prime q (a nonsingular minor mod q is nonsingular over the rationals);
* upper bounds come from explicit integer certificates supplied by the
  caller (a known kernel vector, a left annihilator, or the row count).

When the modular lower bound meets the certified upper bound the rank is
known exactly.

The operators are sparse (a handful of entries per row), so the matrix is
never densified.  Elimination works on rows stored as ``{col: value}``
dicts and keeps, per column, the set of live rows holding it.  Each step
pivots on the live column with the fewest live entries, on that column's
shortest row, ties broken by the lowest index, which keeps fill-in low and
the pivot order deterministic.  The same elimination runs over the
rationals to solve for an exact kernel vector.  A dense Fraction-arithmetic
elimination is provided for small matrices as an independent cross-check.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction
from math import lcm

import numpy as np
import scipy.sparse as sp

__all__ = ["modular_rank", "fraction_rank", "rank_with_upper_bound", "rational_kernel_vector", "annihilates"]

_PRIMES = (2147483629, 2147483587, 2147483563)


def _int_csr(A) -> sp.csr_matrix:
    """A (dense or sparse) as an int64 CSR matrix with summed duplicates.

    Raises ``ValueError`` when an entry is not an integer.
    """
    A = sp.csr_matrix(A)
    if A.dtype.kind not in "iu":
        data = A.data
        if not (np.all(np.isfinite(data)) and np.array_equal(np.rint(data), data)):
            raise ValueError("matrix entries are not integers")
    A = A.astype(np.int64)
    A.sum_duplicates()
    return A


def _rows(A, prime=None) -> list[dict]:
    """Rows of an integer CSR matrix as ``{col: value}`` dicts of Python ints.

    With a prime the values are residues mod prime; entries that vanish
    (explicit zeros, multiples of the prime) are left out.
    """
    data = A.data % prime if prime else A.data
    cols, vals, ptr = A.indices.tolist(), data.tolist(), A.indptr.tolist()
    return [{c: v for c, v in zip(cols[a:b], vals[a:b]) if v} for a, b in zip(ptr[:-1], ptr[1:])]


def _eliminate(rows: list[dict], prime=None) -> list[tuple[int, int]]:
    """Sparse Gaussian elimination of ``rows`` in place.

    Over GF(prime) when a prime is given, else over the rationals.  Returns
    the pivots ``(row, col)`` in elimination order.  A pivot row is left as
    it was when chosen: it holds its pivot column and only columns pivoted
    later or never, so back-substitution runs in reverse pivot order.
    """
    live = defaultdict(set)  # col -> live rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            live[c].add(i)
    heap = [(len(s), c) for c, s in live.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        count, c = heapq.heappop(heap)
        holders = live.get(c)
        if not holders or len(holders) != count:
            continue  # stale entry: the column was pivoted or its count moved
        r = min(holders, key=lambda i: (len(rows[i]), i))
        prow = rows[r]
        inv = pow(prow[c], -1, prime) if prime else 1 / Fraction(prow[c])
        rest = [(k, v) for k, v in prow.items() if k != c]
        del live[c]
        holders.discard(r)
        for k, _ in rest:
            live[k].discard(r)
        for s in holders:
            srow = rows[s]
            f = srow.pop(c) * inv
            if prime:
                f %= prime
            for k, v in rest:
                new = srow.get(k, 0) - f * v
                if prime:
                    new %= prime
                if new:
                    if k not in srow:
                        live[k].add(s)
                    srow[k] = new
                else:
                    del srow[k]
                    live[k].discard(s)
        for k, _ in rest:
            if live[k]:
                heapq.heappush(heap, (len(live[k]), k))
        pivots.append((r, c))
    return pivots


def modular_rank(A, prime: int = _PRIMES[0], return_pivots: bool = False):
    """Rank of an integer matrix over GF(prime) by sparse elimination.

    With ``return_pivots`` also returns the sorted pivot columns, a set of
    columns independent over GF(prime) and hence over the rationals.
    """
    pivots = _eliminate(_rows(_int_csr(A), prime), prime)
    if return_pivots:
        return len(pivots), sorted(c for _, c in pivots)
    return len(pivots)


def fraction_rank(A) -> int:
    """Exact rank via Fraction Gaussian elimination (small matrices only)."""
    M = [[Fraction(v) for v in row] for row in _int_csr(A).toarray().tolist()]
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


def rank_with_upper_bound(A, upper: int) -> tuple[int, bool]:
    """Certified rank given an exact upper bound.

    Returns ``(rank, certified)``.  Tries several primes; certified is True
    when a modular rank reaches the upper bound (then rank == upper exactly).
    """
    best = -1
    for prime in _PRIMES:
        r = modular_rank(A, prime)
        best = max(best, r)
        if best == upper:
            return best, True
    return best, False


def annihilates(A, x) -> bool:
    """True when ``A @ x == 0`` exactly, row by row in Python integers."""
    A = _int_csr(A)
    xs = np.asarray(x).tolist()
    cols, vals, ptr = A.indices.tolist(), A.data.tolist(), A.indptr.tolist()
    return all(
        sum(v * xs[c] for c, v in zip(cols[a:b], vals[a:b])) == 0 for a, b in zip(ptr[:-1], ptr[1:])
    )


def rational_kernel_vector(A):
    """An exact nonzero integer kernel vector of an integer matrix, or None.

    Modular elimination picks independent pivot columns and one free column,
    then independent rows of those columns; the resulting square-plus-one
    system is eliminated over the rationals, its one-dimensional kernel is
    scaled to integers, and ``A x = 0`` is verified exactly.
    """
    A = _int_csr(A)
    ncols = A.shape[1]
    rank, pivots = modular_rank(A, _PRIMES[0], return_pivots=True)
    if rank == ncols:
        return None
    chosen = set(pivots)
    cols = pivots + [next(c for c in range(ncols) if c not in chosen)]
    sub = A[:, cols]
    _, rows = modular_rank(sub.T, _PRIMES[0], return_pivots=True)
    B = _rows(sub[rows])
    steps = _eliminate(B)
    done = {c for _, c in steps}
    y = [Fraction(0 if j in done else 1) for j in range(len(cols))]
    for r, c in reversed(steps):
        y[c] = -sum((v * y[k] for k, v in B[r].items() if k != c), Fraction(0)) / B[r][c]
    den = lcm(*(v.denominator for v in y))
    x = np.zeros(ncols, dtype=object)
    for c, v in zip(cols, y):
        x[c] = int(v * den)
    return x if annihilates(A, x) else None
