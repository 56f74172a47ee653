"""Dense generalized eigensolves, time-harmonic solves, port modes, scattering.

Solves are deterministic and single-threaded; systems at desk scale are
reduced with a Cholesky factorization of the mass matrix inside LAPACK's
generalized symmetric driver.
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

ZERO_REL_TOL = 1e-8


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
        out = []
        for lam, v in zip(self.values, self.vectors.T):
            r = K @ v - lam * (M @ v)
            out.append(np.linalg.norm(r) / (np.linalg.norm(v) * lam_max))
        return np.asarray(out)


def solve_generalized_eig(K, M, count=None, vectors=False, zero_tol=None) -> EigenResult:
    """Smallest eigenpairs of K v = lambda M v, K sym-psd and M SPD.

    The zero count tallies eigenvalues below ``zero_tol`` (default 1e-8)
    times the largest one.  ``count`` is the number of nonzero eigenvalues
    kept after the zero block; all of them when None.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M)
    Kd = 0.5 * (Kd + Kd.T)
    Md = 0.5 * (Md + Md.T)
    try:
        np.linalg.cholesky(Md)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("mass matrix is not positive definite") from exc
    if vectors:
        w, V = sla.eigh(Kd, Md)
    else:
        w = sla.eigh(Kd, Md, eigvals_only=True)
        V = None
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    tol = ZERO_REL_TOL if zero_tol is None else zero_tol
    zero = int(np.sum(w < tol * lam_max))
    if count is not None:
        w = w[: zero + count]
        V = V[:, : zero + count] if V is not None else None
    return EigenResult(w, zero, V)


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


def solve_port_mode(K, M):
    """Smallest nonzero eigenvalue and its mass-normalized eigenvector.

    The eigenvector sign is fixed so its first nonzero coefficient is
    positive, making the result deterministic across runs.
    """
    res = solve_generalized_eig(K, M, vectors=True)
    if res.zero_count >= res.values.size:
        raise NumericalError("all port eigenvalues are numerically zero")
    k2 = float(res.values[res.zero_count])
    v = res.vectors[:, res.zero_count]
    Md = M.toarray() if sp.issparse(M) else M
    v = v / np.sqrt(v @ (Md @ v))
    nz = np.nonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0]
    if v[nz[0]] < 0:
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

