"""Exact rank determination for integer matrices.

Ranks are certified without floating point: a lower bound is the rank over
GF(q) for a word-size prime q (a nonsingular minor mod q is nonsingular
over the rationals); upper bounds are integer certificates supplied by the
caller (a kernel vector, a left annihilator, the row count).  When the two
meet, the rank is exact.

The operators are signed incidence matrices of the control mesh, changed
in a few rows near T-junctions.  Reduced mod q (vanishing entries dropped),
a row is a *graph row* when it holds one residue (an edge from its column
to an extra ground node) or two residues with r1 + r2 = 0 (an edge between
its columns).  Of A and its transpose the one with more graph rows is used,
with n columns.  The kernel of its graph rows is {P y}: the vectors constant
on each connected component and zero on the ground's, P the n x k indicator
of the k components without the ground.  So, exactly for any matrix,

    rank A = n - k + rank(A_rest P),

where the core A_rest P is the other rows with columns summed per component.

The core, the pivot columns and the rational kernel solve share one sparse
elimination on ``{col: value}`` row dicts that keeps, per column, the set of
live rows holding it.  Each step pivots on the live column with the fewest
live entries, on its shortest row, ties to the lowest index: fill-in stays
low and the order deterministic.  No matrix is densified.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction
from math import lcm

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = ["modular_rank", "rank_with_upper_bound", "rational_kernel_vector", "annihilates"]

_PRIMES = (2147483629, 2147483587, 2147483563)


def _int_csr(A) -> sp.csr_matrix:
    """A (dense or sparse) as an int64 CSR matrix with summed duplicates.

    Raises ``ValueError`` when an entry is not an integer.
    """
    A = sp.csr_matrix(A)
    if A.dtype.kind not in "iu" and not (np.all(np.isfinite(A.data)) and np.array_equal(np.rint(A.data), A.data)):
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


def _graph_rows(M, prime) -> np.ndarray:
    """Mask of the graph rows of a CSR matrix of nonzero residues."""
    nnz = np.diff(M.indptr)
    return (nnz == 1) | ((nnz == 2) & (np.asarray(M.sum(axis=1)).ravel() % prime == 0))


def modular_rank(A, prime: int = _PRIMES[0], return_pivots: bool = False):
    """Rank of an integer matrix over GF(prime), by contracting its graph rows.

    With ``return_pivots`` the whole matrix is eliminated and the sorted
    pivot columns, independent over GF(prime) and so over the rationals,
    are returned too.
    """
    A = _int_csr(A)
    if return_pivots:
        pivots = _eliminate(_rows(A, prime), prime)
        return len(pivots), sorted(c for _, c in pivots)
    A = sp.csr_matrix((A.data % prime, A.indices, A.indptr), shape=A.shape)
    A.eliminate_zeros()
    M, graph = max(((B, _graph_rows(B, prime)) for B in (A, A.T.tocsr())), key=lambda t: t[1].sum())
    n, nnz = M.shape[1], np.diff(M.indptr)
    # one edge per graph row; a single residue ties its column to node n
    first, last = M.indices[M.indptr[:-1][graph]], M.indices[M.indptr[1:][graph] - 1]
    second = np.where(nnz[graph] == 2, last, n)
    edges = sp.csr_matrix((np.ones(len(first)), (first, second)), shape=(n + 1, n + 1))
    ncomp, labels = connected_components(edges, directed=False)
    # the other rows, their columns summed per component; the ground's is zero
    rest = ~graph & (nnz > 0)
    row = np.repeat(np.cumsum(rest) - 1, nnz)
    keep = np.repeat(rest, nnz) & (labels[M.indices] != labels[n])
    core = sp.csr_matrix((M.data[keep], (row[keep], labels[M.indices[keep]])), shape=(rest.sum(), ncomp))
    return n - (ncomp - 1) + len(_eliminate(_rows(core, prime), prime))


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
    """True when ``A @ x == 0`` exactly: in int64 when ``x`` is an integer
    array and no partial row sum reaches 2**62, else in Python integers."""
    A, x = _int_csr(A), np.asarray(x)
    if x.dtype.kind in "iu" and A.nnz and x.size:
        top = [max(int(v.max()), -int(v.min())) for v in (A.data, x)]
        if top[0] * top[1] * int(np.diff(A.indptr).max()) < 2**62:
            return not np.any(A @ x.astype(np.int64))
    xs = x.tolist()
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
