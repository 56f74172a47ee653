"""Exact rank determination for integer matrices.

Ranks are certified without floating point: a lower bound is the rank over
GF(q) for a word-size prime q (a nonsingular minor mod q is nonsingular
over the rationals); upper bounds are integer certificates supplied by the
caller (a kernel vector checked by :func:`annihilates`, a left annihilator,
the row count).  When the two meet, the rank is exact.

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

The core is reduced by the one elimination here, over GF(q), on
``{col: residue}`` row dicts that keep, per column, the set of live rows
holding it.  Each step pivots on the live column with the fewest live
entries, on its shortest row, ties to the lowest index: fill-in stays low
and the order deterministic.  No matrix is densified.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = ["modular_rank", "rank_with_upper_bound", "annihilates"]

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


def _rows(A, prime) -> list[dict]:
    """Rows of an integer CSR matrix as ``{col: residue mod prime}`` dicts of
    Python ints; entries that vanish (explicit zeros, multiples of the prime)
    are left out.
    """
    cols, vals, ptr = A.indices.tolist(), (A.data % prime).tolist(), A.indptr.tolist()
    return [{c: v for c, v in zip(cols[a:b], vals[a:b]) if v} for a, b in zip(ptr[:-1], ptr[1:])]


def _eliminate(rows: list[dict], prime) -> int:
    """Rank of ``rows`` over GF(prime), by sparse Gaussian elimination in place."""
    live = defaultdict(set)  # col -> live rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            live[c].add(i)
    heap = [(len(s), c) for c, s in live.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        count, c = heapq.heappop(heap)
        holders = live.get(c)
        if not holders or len(holders) != count:
            continue  # stale entry: the column was pivoted or its count moved
        r = min(holders, key=lambda i: (len(rows[i]), i))
        prow = rows[r]
        inv = pow(prow[c], -1, prime)
        rest = [(k, v) for k, v in prow.items() if k != c]
        del live[c]
        holders.discard(r)
        for k, _ in rest:
            live[k].discard(r)
        for s in holders:
            srow = rows[s]
            f = srow.pop(c) * inv % prime
            for k, v in rest:
                new = (srow.get(k, 0) - f * v) % prime
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
        rank += 1
    return rank


def _graph_rows(M, prime) -> np.ndarray:
    """Mask of the graph rows of a CSR matrix of nonzero residues."""
    nnz = np.diff(M.indptr)
    return (nnz == 1) | ((nnz == 2) & (np.asarray(M.sum(axis=1)).ravel() % prime == 0))


def modular_rank(A, prime: int = _PRIMES[0]) -> int:
    """Rank of an integer matrix over GF(prime), by contracting its graph rows."""
    A = _int_csr(A)
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
    return n - (ncomp - 1) + _eliminate(_rows(core, prime), prime)


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
