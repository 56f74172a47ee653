"""Dense generalized eigensolves, time-harmonic solves, port modes, scattering.

Solves are deterministic and single-threaded; systems at desk scale are
reduced with a Cholesky factorization of the mass matrix inside LAPACK's
generalized symmetric driver.

The kernel of the Maxwell stiffness is exactly the image of the discrete
gradient, the zero block of every Maxwell spectrum.  Given that kernel G
(n x m), :func:`solve_generalized_eig` deflates it: it solves only the
(n-m)-dim pencil on a complement of range(G), whose eigenvalues are the
nonzero ones, and puts m exact zeros in front (Arbenz and Geus, Appl.
Numer. Math. 54, 2005).  The zero count is m, never a threshold: a float
zero beyond the kernel (a deflated eigenvalue below ``ZERO_REL_TOL`` of the
largest), a kernel that K does not annihilate, that is rank deficient, or
that leaves an indefinite deflated mass matrix raises :class:`NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def solve_generalized_eig(K, M, count=None, vectors=False, kernel=None) -> EigenResult:
    """Smallest eigenpairs of K v = lambda M v, K sym-psd and M SPD.

    ``kernel`` is an exact basis G (n x m) of the null space of K.  Its m
    exact zeros are the whole zero block, the dense solve runs only on the
    (n-m)-dim deflated pencil of :func:`_deflate`, and a deflated value
    below ``ZERO_REL_TOL`` times the largest raises :class:`NumericalError`.
    Without a kernel, the zeros are the values below that threshold.
    ``count`` is the number of nonzero eigenvalues kept after the zero
    block; all of them when None.  With ``vectors`` the zero block holds
    the kernel columns.
    """
    m = 0 if kernel is None else kernel.shape[1]
    Kd, Md, lift = _deflate(K, M, kernel) if m else (_dense(K), _dense(M), None)
    Kd = 0.5 * (Kd + Kd.T)
    Md = 0.5 * (Md + Md.T)
    try:
        # values only: LAPACK sygv, faster on these pencils than the default sygvd
        w, V = sla.eigh(Kd, Md) if vectors else (sla.eigh(Kd, Md, eigvals_only=True, driver="gv"), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    below = int(np.sum(w < ZERO_REL_TOL * lam_max))
    if kernel is not None and below:
        raise NumericalError(f"{below} deflated eigenvalue(s) below {ZERO_REL_TOL:.0e} of the largest: float zeros beyond the exact kernel of dimension {m}")
    zero = m + below
    w = np.concatenate([np.zeros(m), w])
    if V is not None and m:
        V = np.hstack([_dense(kernel), lift(V)])
    if count is not None:
        w = w[: zero + count]
        V = V[:, : zero + count] if V is not None else None
    return EigenResult(w, zero, V)


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)


def _fro(A):
    return float(spla.norm(A)) if sp.issparse(A) else float(np.linalg.norm(A))


def _deflate(K, M, G):
    """The pencil (K_CC, S) on a complement of range(G), with K G = 0.

    T are the m pivot rows of a partially pivoted LU of G, C the others.
    In the basis [E_C, G] the matrix K is block diagonal (K_CC, 0); the
    Schur complement S = M_CC - M_CR (G^T M G)^-1 M_RC of the G block of M
    (M_CR = E_C^T M G) makes the nonzero eigenvalues of (K_CC, S) exactly
    those of (K, M).  Returns (K_CC, S, lift): lift maps deflated
    eigenvectors x to the full v = E_C x - G (G^T M G)^-1 G^T M E_C x.
    Raises NumericalError when G is not a kernel of K, is rank deficient
    or has an indefinite G^T M G.
    """
    n, m = G.shape
    KG = K @ G
    if _fro(KG) > KERNEL_REL_TOL * _fro(K) * _fro(G):
        raise NumericalError(f"the kernel is not annihilated: |KG| = {_fro(KG):.2e}")
    lu, piv = sla.lu_factor(_dense(G))
    pivots = np.abs(np.diag(lu))
    if not pivots.min() > max(n, m) * np.finfo(float).eps * np.abs(np.triu(lu[:m])).max():
        raise NumericalError("the kernel columns are linearly dependent")
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[[i, p]] = perm[[p, i]]
    C = np.sort(perm[m:])
    MG = sp.csr_matrix(M @ G)
    try:
        L = np.linalg.cholesky(_dense(G.T @ MG))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("G^T M G is not positive definite") from exc
    W = sla.solve_triangular(L, _dense(MG[C].T), lower=True)
    sub = np.ix_(C, C)
    S = _dense(M[sub]) - W.T @ W

    def lift(X):
        V = np.zeros((n, X.shape[1]))
        V[C] = X
        return V - G @ sla.solve_triangular(L, W @ X, lower=True, trans="T")

    return _dense(K[sub]), S, lift


def solve_source(A, b, tol=1e-10):
    """Direct solve with a relative-residual guard.  Real sparse systems are
    the SPD ones here: they are factored with a symmetric minimum-degree
    ordering and diagonal pivots; complex ones with the default ordering."""
    if sp.issparse(A) and not (np.iscomplexobj(A) or np.iscomplexobj(b)):
        try:
            lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # an exactly singular factor
            raise NumericalError(f"sparse factorization failed: {exc}") from exc
        x = lu.solve(b)
    elif sp.issparse(A):
        x = spla.spsolve(A.tocsc(), b)
    else:
        x = np.linalg.solve(A, b)
    nb = np.linalg.norm(b)
    if nb > 0:
        res = np.linalg.norm(A @ x - b) / nb
        if not res <= tol:  # NaN fails too
            raise NumericalError(f"direct solve residual {res:.2e} exceeds {tol:.0e}")
    return x


def solve_port_mode(K, M, kernel=None):
    """Smallest nonzero eigenvalue and its mass-normalized eigenvector;
    ``kernel`` is deflated as in :func:`solve_generalized_eig`.

    The eigenvector sign is fixed so its largest-magnitude coefficient
    (the lowest-indexed one on a tie) is positive; unlike the first nonzero
    coefficient, that entry is never at roundoff, so the sign does not
    depend on the solver path.
    """
    res = solve_generalized_eig(K, M, vectors=True, kernel=kernel)
    if res.zero_count >= res.values.size:
        raise NumericalError("all port eigenvalues are numerically zero")
    k2 = float(res.values[res.zero_count])
    v = res.vectors[:, res.zero_count]
    v = v / np.sqrt(v @ (M @ v))
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return k2, v


def compute_scattering(I1, I2, norm, beta, z1, z2):
    """Reflection and transmission coefficients from port overlap integrals.

    ``I1`` and ``I2`` are the overlaps of the solution with the port mode on
    the input and output ports, ``norm`` the mode's self-overlap.  The
    reflection coefficient subtracts the incident wave's own overlap; the
    transmitted wave is phase-referenced at the output port.
    """
    if norm == 0:
        raise ValueError("zero port-mode normalization")
    R = np.exp(-1j * beta * z1) * I1 / norm - np.exp(-2j * beta * z1)
    T = np.exp(1j * beta * z2) * I2 / norm
    return R, T

