"""Dense generalized eigensolves, time-harmonic solves, port modes, scattering.

Solves are deterministic and single-threaded; systems at desk scale are
reduced with a Cholesky factorization of the mass matrix inside LAPACK's
generalized symmetric driver.

Every eigensolve is given the exact kernel of its stiffness.  For Maxwell
that is the image of the discrete gradient, the zero block of every
Maxwell spectrum; a Dirichlet Laplacian has the empty kernel.  Given that
kernel G (n x m), :func:`solve_generalized_eig` deflates it: it solves only
the (n-m)-dim pencil on a complement of range(G), whose eigenvalues are the
nonzero ones, and puts m exact zeros in front (Arbenz and Geus, Appl.
Numer. Math. 54, 2005).  The zero count is m, never a threshold: a float
zero beyond the kernel (a deflated eigenvalue below ``ZERO_REL_TOL`` of the
largest), a kernel that K does not annihilate, or one that leaves an
indefinite deflated mass matrix raises :class:`NumericalError`.

G must be an incidence kernel, as every gradient the library deflates is:
its rows with one nonzero entry (an edge from the column to a ground node)
or two that sum to exactly 0 (an edge between the two columns) must span
a tree.  Their breadth-first tree from the ground, the lowest of parallel
rows kept, gives m pivot rows on which G is triangular with a nonzero
diagonal, so independence is exact (the tree-cotree gauge, Albanese and
Rubinacci, IEE Proc. A 135, 1988).  Any other kernel, a generic dense
basis or one with dependent columns, raises :class:`NumericalError`.

The solver never writes into K, M or the kernel: every dense array it
factors or hands to LAPACK is a Fortran-ordered copy it made itself
(:func:`_dense`), and those copies are overwritten in place.  Without
eigenvectors the deflation keeps at most about three dense arrays alive at
once: the Cholesky factor L of G^T M G overwrites its copy; W = L^-1
(MG)_C^T overwrites its right-hand side, L is dropped, one ``syrk`` turns
the dense M_CC into the lower triangle of S = M_CC - W^T W, and W is
dropped before K_CC is densified.  ``eigh`` reads the lower triangles of
K_CC and S and overwrites both, so no symmetrized copy is made.

:func:`solve_source` is one sparse LU factorization (``splu``) with a
relative-residual guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_tree

__all__ = [
    "NumericalError",
    "EigenResult",
    "solve_generalized_eig",
    "solve_source",
    "solve_port_mode",
    "compute_scattering",
]

ZERO_REL_TOL = 1e-8  # a float zero, relative to the largest eigenvalue
KERNEL_REL_TOL = 1e-10  # |K G| against |K| |G|, all Frobenius
SOLVE_REL_TOL = 1e-10  # |A x - b| against |b|, the direct solve's guard


class NumericalError(ValueError):
    """The numerics failed on valid input (non-SPD mass, solve residual)."""


@dataclass
class EigenResult:
    values: np.ndarray  # ascending
    zero_count: int
    vectors: np.ndarray | None = None

    @property
    def nonzero(self) -> np.ndarray:
        return self.values[self.zero_count :]

    def residuals(self, K, M) -> np.ndarray:
        """Per pair ||K v - lambda M v|| / ||v||, scaled by the spectral range."""
        if self.vectors is None:
            raise ValueError("eigenvectors were not requested")
        lam_max = max(float(np.max(np.abs(self.values))), 1.0)
        V = self.vectors
        R = K @ V - (M @ V) * self.values
        return np.linalg.norm(R, axis=0) / (np.linalg.norm(V, axis=0) * lam_max)


def solve_generalized_eig(K, M, kernel, count=None, vectors=False) -> EigenResult:
    """Smallest eigenpairs of K v = lambda M v, K sym-psd and M SPD.

    ``kernel`` is an exact basis G (n x m) of the null space of K, possibly
    empty (m = 0), whose incidence rows span a tree (module docstring); a
    kernel without one raises :class:`NumericalError`.  Its m exact zeros
    are the whole zero block, the dense solve runs only on the (n-m)-dim
    deflated pencil of :func:`_deflate`, and a deflated value below
    ``ZERO_REL_TOL`` times the largest raises :class:`NumericalError`.
    ``count`` is the number of nonzero eigenvalues kept after the zero
    block; all of them when None.  With ``vectors`` the zero block holds the
    kernel columns.  K, M and the kernel are only read.
    """
    m = kernel.shape[1]
    Kd, Md, lift = _deflate(K, M, kernel, vectors)
    try:  # on the lower triangles of the solver's own arrays, overwritten
        if vectors:
            w, V = sla.eigh(Kd, Md, lower=True, overwrite_a=True, overwrite_b=True)
        else:  # LAPACK sygv, faster on these pencils than the default sygvd
            w, V = sla.eigh(Kd, Md, lower=True, eigvals_only=True, overwrite_a=True, overwrite_b=True, driver="gv"), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    del Kd, Md
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    below = int(np.sum(w < ZERO_REL_TOL * lam_max))
    if below:
        raise NumericalError(f"{below} deflated eigenvalue(s) below {ZERO_REL_TOL:.0e} of the largest: float zeros beyond the exact kernel of dimension {m}")
    w = np.concatenate([np.zeros(m), w])
    if V is not None:
        V = np.hstack([_dense(kernel), lift(V)])
    if count is not None:
        w = w[: m + count]
        V = V[:, : m + count] if V is not None else None
    return EigenResult(w, m, V)


def _dense(A):
    """A dense Fortran-ordered float copy of ``A``, which the solver owns."""
    return A.toarray(order="F") if sp.issparse(A) else np.array(A, dtype=float, order="F")


def _fro(A):
    return float(spla.norm(A)) if sp.issparse(A) else float(np.linalg.norm(A))


def _deflate(K, M, G, vectors):
    """The pencil (K_CC, S) on a complement of range(G), with K G = 0.

    C are the rows of G off the spanning tree of :func:`_cotree`.  In the
    basis [E_C, G] the matrix K is block diagonal (K_CC, 0); the
    Schur complement S = M_CC - M_CR (G^T M G)^-1 M_RC of the G block of M
    (M_CR = E_C^T M G) makes the nonzero eigenvalues of (K_CC, S) exactly
    those of (K, M).  S = M_CC - W^T W with W = L^-1 (MG)_C^T and L L^T =
    G^T M G; only its lower triangle is formed.  Returns (K_CC, S, lift),
    dense Fortran arrays the caller may overwrite; with ``vectors``, lift
    maps deflated eigenvectors x to the full v = E_C x - G (G^T M G)^-1
    G^T M E_C x, else it is None and L and W are freed before K_CC is
    densified.  Raises NumericalError when G is not a kernel of K, has no
    spanning tree or has an indefinite G^T M G.
    """
    kg = _fro(K @ G)
    if kg > KERNEL_REL_TOL * _fro(K) * _fro(G):
        raise NumericalError(f"the kernel is not annihilated: |KG| = {kg:.2e}")
    C = _cotree(G)
    MG = sp.csr_matrix(M @ G)
    try:  # in place on the solver's own copy
        L = sla.cholesky(_dense(G.T @ MG), lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("G^T M G is not positive definite") from exc
    W = sla.solve_triangular(L, _dense(MG[C].T), lower=True, overwrite_b=True)
    del MG
    lift = _lift(G, C, L, W) if vectors else None
    del L
    sub = np.ix_(C, C)
    S = _dense(M[sub])
    if W.size:  # BLAS refuses an empty product; M_CC - W^T W
        S = sla.blas.dsyrk(-1.0, W, beta=1.0, c=S, trans=1, lower=1, overwrite_c=1)
    del W
    return _dense(K[sub]), S, lift


def _cotree(G):
    """The rows of G off the breadth-first tree of its incidence rows (module
    docstring), ascending; NumericalError if the tree misses a column."""
    n, m = G.shape
    A = sp.csr_matrix(G).sorted_indices()  # a copy: a < b on a two-entry row
    A.eliminate_zeros()
    count = np.diff(A.indptr)
    rows = np.flatnonzero((count == 1) | (count == 2))
    first, two = A.indptr[rows], count[rows] == 2
    a, b = A.indices[first], np.where(two, A.indices[first + two], m)
    keep = np.flatnonzero(~two | (A.data[first] + A.data[first + two] == 0))
    keep = keep[np.unique(a[keep] * (m + 1) + b[keep], return_index=True)[1]]  # the lowest of parallel rows
    tree = breadth_first_tree(sp.csr_matrix((rows[keep] + 1.0, (a[keep], b[keep])), shape=(m + 1, m + 1)), m, directed=False)
    if tree.nnz < m:
        missing = np.setdiff1d(np.arange(m), tree.indices)[0]
        raise NumericalError(f"the kernel columns are linearly dependent or not an incidence kernel: no tree of its incidence rows reaches column {missing}")
    return np.setdiff1d(np.arange(n), tree.data.astype(int) - 1)


def _lift(G, C, L, W):
    """The map of deflated eigenvectors x to v = E_C x - G L^-T W x."""

    def lift(X):
        V = np.zeros((G.shape[0], X.shape[1]))
        V[C] = X
        return V - G @ sla.solve_triangular(L, W @ X, lower=True, trans="T")

    return lift


def solve_source(A, b):
    """Sparse direct solve of A x = b, one ``splu`` factorization, with a
    relative-residual guard, ``SOLVE_REL_TOL``.  Real systems are the SPD
    ones here: they are factored with a symmetric minimum-degree ordering
    and diagonal pivots; complex ones with the default ordering and
    pivoting."""
    dtype = np.result_type(A.dtype, b.dtype, float)
    spd = {} if dtype.kind == "c" else {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0, "options": {"SymmetricMode": True}}
    try:
        x = spla.splu(sp.csc_matrix(A, dtype=dtype), **spd).solve(b)
    except RuntimeError as exc:  # an exactly singular factor
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    nb = np.linalg.norm(b)
    if nb > 0:
        res = np.linalg.norm(A @ x - b) / nb
        if not res <= SOLVE_REL_TOL:  # NaN fails too
            raise NumericalError(f"direct solve residual {res:.2e} exceeds {SOLVE_REL_TOL:.0e}")
    return x


def solve_port_mode(K, M, kernel):
    """Smallest nonzero eigenvalue and its mass-normalized eigenvector;
    ``kernel`` is deflated as in :func:`solve_generalized_eig`, so its
    incidence rows must span a tree.

    The eigenvector sign is fixed so its largest-magnitude coefficient
    (the lowest-indexed one on a tie) is positive; unlike the first nonzero
    coefficient, that entry is never at roundoff, so the sign does not
    depend on the solver path.
    """
    res = solve_generalized_eig(K, M, kernel, vectors=True)
    if res.zero_count >= res.values.size:
        raise NumericalError("the deflated port pencil is empty: the kernel spans the whole space")
    k2 = float(res.values[res.zero_count])
    v = res.vectors[:, res.zero_count]
    v = v / np.sqrt(v @ (M @ v))
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return k2, v


def compute_scattering(I1, I2, norm, beta, length):
    """Reflection and transmission coefficients from port overlap integrals.

    ``I1`` and ``I2`` are the solution's overlaps with the port mode on the
    ports at z = 0 and z = ``length``, ``norm`` the mode's self-overlap.
    R = I1/norm - 1 subtracts the incident wave's own overlap; T = e^{i beta
    length} I2/norm is the transmitted wave phase-referenced at z = length.
    """
    if norm == 0:
        raise ValueError("zero port-mode normalization")
    R = I1 / norm - 1
    T = np.exp(1j * beta * length) * I2 / norm
    return R, T

