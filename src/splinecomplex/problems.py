"""Ready-made benchmark problems: square eigenvalues, L-section, cylinder
sector source, straight-guide scattering.

These drivers wire meshes, geometries, glue, assembly and solvers together
and are what the command-line front end runs.  Every Maxwell driver takes
its matrices, the exact gradient kernel too, from :func:`_section_matrices`.

The thick L, the cylinder sector and the straight guide are prisms, a
section extruded over z (the benchmarks define the sections; no driver
needs the 3D patches of ``geometry.extrude``): their 3D curl-curl and mass
forms are Kronecker sums of section and vertical matrices
(:func:`_prism_pencil`), because the map (F(x, y), z) leaves every
pullback block diagonal and the tensor Gauss rule of a cell is the product
of its section and vertical rules.  Only the section is assembled.  The
guide's system, with its port term, is formed from the Kronecker products
and solved at once.  The vertical generalized
eigenbasis splits the thick L and the cylinder exactly by vertical modes
(fast diagonalization).  The thick L's lids are PEC, so its modes live on
the interior vertical B-splines, and its spectrum is sums of theirs and
the section's (:func:`thick_l_eigenproblem`).  The cylinder solves one
section-sized system per mode.  Its lids are natural: its modes live on
all vertical B-splines, and the constant (the B-splines sum to one) is the
mode mu_0 = 0, the exact kernel that the vertical eigensolve deflates: its
derivative vanishes, so it has no vertical component.
Its load and H(curl) error are integrated on the section too (sum
factorization): the section map on the 2D Gauss points, the modes on the z
points, and no 3D map or 3D space (:func:`cylinder_sector_source`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .assembly import (
    Scalar2D,
    Vector2D,
    _rules_2d,
    _shared_patterns,
    _space_tables,
    _span_rule,
    _vertical_mass,
    assemble_matrix_2d,
    dirichlet_dofs,
)
from .benchmarks import (
    CYLINDER_INTERFACES,
    LSECTION_INTERFACES,
    cylinder_section_raw_tmesh,
    cylinder_sector_patches,
    lsection_patches,
    lsection_raw_tmesh,
    square_geometry,
    square_raw_tmesh,
)
from .bspline import KnotVector, grad_matrix_1d, scaled_eval
from .geometry import _adjugate
from .multipatch import PatchSet, build_glue, global_operator
from .solvers import EigenResult, compute_scattering, solve_generalized_eig, solve_port_mode, solve_source
from .tmesh import TMesh2D, TsplineSpace, tensor_raw_tmesh
from .tspline import build_tspline_complex, derive_complex_meshes

ALL_FACES_2D = ((0, 0), (0, 1), (1, 0), (1, 1))

# Per patch of the L-section (and of the thick L), the faces on the outer
# wall; the interfaces are the benchmark's (LSECTION_INTERFACES).
_L_WALLS = {
    0: [(0, 0), (0, 1), (1, 1)],
    1: [(0, 1), (1, 1)],
    2: [(0, 1), (1, 0), (1, 1)],
}

# The walls of the three slices of the cylinder sector, as for the L.
_CYL_WALLS = {0: [(1, 0)], 2: [(1, 1)]}

__all__ = [
    "square_eigenproblem",
    "lsection_laplace_eigenproblem",
    "thick_l_eigenproblem",
    "cylinder_sector_source",
    "waveguide_scattering",
]


@dataclass
class EigenRun:
    dofs: int
    system_size: int
    result: EigenResult


def _system(ps: PatchSet, walls, kinds):
    """Assemble every kind on every patch, glue it into a global matrix, and
    drop the dofs clamped on the walls (patch -> faces).  Returns (glue,
    matrices, free dofs).

    A lone patch without interfaces keeps its local numbering and is not
    glued; its glue is None.  All kinds and patches on the same spaces share
    one sparsity pattern (:func:`_shared_patterns`).
    """
    glue = build_glue(ps) if ps.npatches > 1 or ps.interfaces else None
    matrices = []
    with _shared_patterns():
        for kind in kinds:
            local = [assemble_matrix_2d(space, geom, kind) for space, geom in zip(ps.spaces, ps.geoms)]
            matrices.append(glue.global_matrix(local) if glue else local[0])
    return glue, matrices, _free(ps, glue, walls, glue.ndof if glue else ps.spaces[0].dim)


def _free(ps: PatchSet, glue, walls, ndof):
    """The (global) dofs of ``ps`` without a trace on the walls."""
    if glue is None:
        walled = dirichlet_dofs(ps.spaces[0], walls[0])
    else:
        walled = [d for k, faces in walls.items() for d in glue.global_dofs_for(k, dirichlet_dofs(ps.spaces[k], faces))]
    return np.setdiff1d(np.arange(ndof), walled)


def _section_matrices(ps: PatchSet, walls, scalar_kinds=("mass",)):
    """The Maxwell pipeline on Vector2D spaces glued across ``ps``'s
    interfaces and clamped on ``walls``: (C, M1, *scalar matrices, G), the
    rot-rot and mass, the ``scalar_kinds`` of the scalar spaces of
    ``space.gradient()`` and the gradient G, a basis of C's exact kernel,
    on the free dofs; (glue1, glue0) and (free1, free0), the glues and free
    dofs of the vector and the scalar spaces, each glue built once.  The
    scalar kinds reuse the geometry the vector kinds evaluated on a rule."""
    scalars, grads = zip(*(space.gradient() for space in ps.spaces))
    with _shared_patterns():
        glue1, (C, M1), free1 = _system(ps, walls, ("rotrot", "mass"))
        glue0, scalar, free0 = _system(PatchSet(ps.geoms, scalars, ps.interfaces), walls, scalar_kinds)
    G = grads[0] if glue0 is None else global_operator(glue0, glue1, grads)
    sub1, sub0 = np.ix_(free1, free1), np.ix_(free0, free0)
    return (C[sub1], M1[sub1], *(A[sub0] for A in scalar), G.tocsr()[free1][:, free0]), (glue1, glue0), (free1, free0)


def square_eigenproblem(level: int = 0, degree: int = 3, count: int = None) -> EigenRun:
    """Maxwell cavity eigenvalues on (0, pi)^2 with the benchmark T-meshes.

    ``dofs`` reports the dimension of the rot-conforming space before the
    tangential boundary conditions are eliminated.
    """
    tcx = build_tspline_complex(derive_complex_meshes(square_raw_tmesh(level), degree))
    ps = PatchSet([square_geometry()], [Vector2D(tcx)])
    (C, M1, G), _, (free1, _) = _section_matrices(ps, {0: ALL_FACES_2D}, ())
    return EigenRun(ps.spaces[0].dim, free1.size, solve_generalized_eig(C, M1, G, count))


def lsection_laplace_eigenproblem(level: int = 0, degree: int = 4, count: int = 5) -> EigenRun:
    """Dirichlet Laplacian eigenvalues of the L-shaped section, three glued
    patches with corner-refined T-meshes (the first eigenvalue is the
    L-membrane benchmark value); the exact kernel is empty."""
    space = Scalar2D(TsplineSpace(TMesh2D.from_raw(lsection_raw_tmesh(level, degree), (degree, degree))))
    ps = PatchSet(lsection_patches(), [space] * 3, LSECTION_INTERFACES)
    glue, (K, M), free = _system(ps, _L_WALLS, ("gradgrad", "mass"))
    K, M = (A[np.ix_(free, free)] for A in (K, M))  # the full matrices are freed before the dense solve
    return EigenRun(glue.ndof, free.size, solve_generalized_eig(K, M, np.zeros((free.size, 0)), count))


def thick_l_eigenproblem(level: int = 0, degree: int = 4, nz: int = None, count: int = 5) -> EigenRun:
    """Maxwell cavity eigenvalues of the thick L (section times (0,1)), PEC
    on the side walls and the lids, from two section eigensolves.

    Only the section is assembled (:func:`_section_matrices`).  On each
    vertical mode mu_k of :func:`_vertical_modes` (interior B-splines, fast
    diagonalization) a section TE pair C u = lambda M1 u, G^T M1 u = 0
    gives lambda + mu_k; a Dirichlet Laplacian pair (G^T M1 G) phi =
    kappa M0 phi spans with (G phi, phi) the block [[mu, -sqrt(mu)],
    [-kappa sqrt(mu), kappa]], eigenvalues 0 and kappa + mu_k; the constant
    vertical mode of the vertical component gives kappa.  So the spectrum is
    n0 (n - 2) exact zeros (n0 free scalar section dofs, n vertical
    B-splines), then {lambda_j + mu_k}, {kappa_i + mu_k} and {kappa_i}: the
    cavity modes omega^2 = gamma^2 + (p pi / d)^2 in discrete form.  Any
    float zero of the Laplacian raises.  ``dofs`` and ``system_size`` count
    the 3D space, glued and on the free dofs.
    """
    nz = nz or max(2, 2 ** (1 + level))
    kv_z = KnotVector.uniform(degree, nz)
    tcx = build_tspline_complex(derive_complex_meshes(lsection_raw_tmesh(level, degree), degree))
    ps = PatchSet(lsection_patches(), [Vector2D(tcx)] * 3, LSECTION_INTERFACES)
    (C, M1, M0, G), (glue1, glue0), _ = _section_matrices(ps, _L_WALLS)
    mu = _vertical_modes(kv_z, "pec")[0]
    lam = solve_generalized_eig(C, M1, G).nonzero
    # an empty kernel: any float zero of the Laplacian raises
    kappa = solve_generalized_eig(G.T @ M1 @ G, M0, np.zeros((M0.shape[0], 0))).values
    n = kv_z.n  # the horizontal components keep the n - 2 interior vertical B-splines
    zero = G.shape[1] * (n - 2)
    sums = np.concatenate([np.add.outer(lam, mu).ravel(), np.add.outer(kappa, mu).ravel(), kappa])
    values = np.concatenate([np.zeros(zero), np.sort(sums)])
    if count is not None:
        values = values[: zero + count]
    size = C.shape[0] * (n - 2) + M0.shape[0] * (n - 1)
    return EigenRun(glue1.ndof * n + glue0.ndof * (n - 1), size, EigenResult(values, zero))


def _vertical_modes(kv_z: KnotVector, lids):
    """(mu, V, W): the eigenpairs (mu_k, V) of (D^T M_D D, M_B), D = d/dz
    into the D-scaled derived space and M_B, M_D the 1D masses, on the
    B-splines of ``kv_z`` that the lids leave free: the interior ones under
    "pec" lids, all of them under "natural" lids.  V is M_B-orthonormal
    and W = D V / sqrt(mu) M_D-orthonormal, one column per mu_k > 0.  The
    pencil's exact kernel is deflated (:func:`solve_generalized_eig`): it
    is empty under PEC lids; natural lids keep the constant, M_B-normalized,
    which D annihilates exactly (its rows are +1 and -1), so mu_0 = 0 and
    W spans the derived space."""
    n, M_B = kv_z.n, _vertical_mass(kv_z, "B")
    free, m = {"pec": (np.arange(1, n - 1), 0), "natural": (np.arange(n), 1)}[lids]
    D = grad_matrix_1d(kv_z)[:, free].toarray()
    constant = np.ones((free.size, m)) / math.sqrt(M_B.sum())  # 1^T M_B 1 = M_B.sum()
    K = D.T @ _vertical_mass(kv_z.derived(), "D") @ D
    res = solve_generalized_eig(K, M_B[np.ix_(free, free)], constant, vectors=True)
    V = np.zeros((n, free.size))
    V[free] = res.vectors
    return res.values, V, D @ res.vectors[:, m:] / np.sqrt(res.values[m:])


def _prism_pencil(C, M1, M0, G, MB, MD, D):
    """(K, M), the curl-curl and mass matrices of a prism on (horizontal,
    vertical) components, the vertical index slowest, from the section's
    (C, M1, M0, G) (:func:`_section_matrices`) and the vertical B-spline
    mass MB, D-spline mass MD and derivative D from B- to D-splines:
    K = [[MB x C + D^T MD D x M1, -D^T MD x M1 G], [-MD D x G^T M1,
    MD x G^T M1 G]] and M = diag(MB x M1, MD x M0).  Its kernel is
    [I x G; D x I], the gradients of the scalar functions.  One vertical
    mode mu is the 1 x 1 case MB = MD = 1, D = sqrt(mu)."""
    M1G, DMD = M1 @ G, D.T @ MD
    K = sp.bmat(
        [[sp.kron(MB, C) + sp.kron(DMD @ D, M1), sp.kron(-DMD, M1G)], [sp.kron(-MD @ D, M1G.T), sp.kron(MD, G.T @ M1G)]],
        format="csr",
    )
    return K, sp.block_diag([sp.kron(MB, M1), sp.kron(MD, M0)], format="csr")


# -- cylinder sector --------------------------------------------------------------


def _cyl_theta(x, y):
    t = np.arctan2(y, x)
    return np.where(t < -1e-12, t + 2 * np.pi, t)


def cyl_exact_field(X):
    """grad(r^(2/3) sin(2 theta/3) sin(pi z)) on the three-quarter cylinder."""
    x, y, z = X[:, 0], X[:, 1], X[:, 2]
    r = np.hypot(x, y)
    t = _cyl_theta(x, y)
    r = np.maximum(r, 1e-300)
    sz = np.sin(np.pi * z)
    ux = -(2.0 / 3.0) * r ** (-1.0 / 3.0) * np.sin(t / 3.0) * sz
    uy = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.cos(t / 3.0) * sz
    uz = np.pi * r ** (2.0 / 3.0) * np.sin(2.0 * t / 3.0) * np.cos(np.pi * z)
    return np.column_stack([ux, uy, uz])


def _point_tables(space, order, deriv):
    """The reference values of a 2D ``space``, or with ``deriv`` its rots or
    grads, at the Gauss points of its elements, element by element, as one
    sparse matrix (point, component) x dof, built from the component tables
    of :func:`_space_tables` without their padding: a component holds
    entries only for the functions of its table."""
    idx, comps = _space_tables(space, order, deriv)
    nel, npts, c = len(idx), comps[0][1].shape[2], len(comps)
    rows, cols, vals = [], [], []
    for i, (start, V) in enumerate(comps):
        shape = (nel, npts, V.shape[1])
        dofs = np.broadcast_to(idx[:, None, start : start + V.shape[1]], shape)
        keep = dofs >= 0
        row = (np.arange(nel)[:, None, None] * npts + np.arange(npts)[:, None]) * c + i
        rows.append(np.broadcast_to(row, shape)[keep])
        cols.append(dofs[keep])
        vals.append(V.transpose(0, 2, 1)[keep])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(nel * npts * c, space.dim))


def _lift(F, T):
    """F (..., k) times T^T, T (m, k), as one matrix product: (..., m)."""
    return (F.reshape(-1, F.shape[-1]) @ T.T).reshape(*F.shape[:-1], -1)


def cylinder_sector_source(level: int = 0, degree: int = 3, nz: int = None, tensor: bool = False):
    """Curl-curl source problem on 3/4 of the cylinder with a singular exact
    gradient field; returns (total dofs, free dofs, H(curl) error).

    The vertical mesh refines with the level like the section does.  The
    lids are natural, and the problem is solved one vertical mode at a time
    (:func:`_vertical_modes`) on the three quarter-disk sections: mode 0 is
    (C + M1) x = f, mode k >= 1 the K + M of :func:`_prism_pencil` with
    MB = MD = 1, D = sqrt(mu_k), written out from products shared by all
    modes (level 1, nz = 2, 2 cores: 8 ms, against 25 ms through
    :func:`_prism_pencil`).  Load and error are integrated section point
    by section point: a slice (F(x, y), z) has J = blockdiag(J2, 1), det J
    = det J2 and adj J = blockdiag(adj J2, det J2), so only the section map
    is evaluated, on the 2D Gauss points, and the modes Psi = B V, Psi' and
    chi = D W on the z points.  The exact field, evaluated once on each
    slice's (section point x z point) grid, is projected onto the modes for
    the load, and the modal section fields are lifted over z for the error.
    """
    nz = nz or 2 ** (level + 1)
    raw = cylinder_section_raw_tmesh(level)
    if tensor:
        raw = tensor_raw_tmesh(raw.breakpoints_x, raw.breakpoints_y)
    kv_z = KnotVector.uniform(degree, nz)
    tcx = build_tspline_complex(derive_complex_meshes(raw, degree))
    sections = cylinder_sector_patches()
    ps = PatchSet(sections, [Vector2D(tcx)] * 3, CYLINDER_INTERFACES)
    (C, M1, M0, G), (glue1, glue0), (free1, free0) = _section_matrices(ps, _CYL_WALLS)
    mu, V, W = _vertical_modes(kv_z, "natural")
    n, order = kv_z.n, degree + 2  # the rule of the load and the error
    # the section's values, rots and scalar values; the z rule and the modes on it
    vec, sca = ps.spaces[0], Scalar2D(tcx.Y0)
    E1, E0, R1 = _point_tables(vec, order, False), _point_tables(sca, order, False), _point_tables(vec, order, True)
    P2, W2 = (a.reshape(-1, *a.shape[2:]) for a in _rules_2d(vec.elements(), order))
    zq, wz = _span_rule(kv_z, order)
    Psi, dPsi = (scaled_eval(kv_z.local_rows, degree, "B", zq, d) @ V for d in (0, 1))
    chi = scaled_eval(kv_z.derived().local_rows, degree - 1, "D", zq) @ W
    slices = []
    bh = bv = 0.0  # the glued loads: section dofs x modes
    for S1, S0, section in zip(glue1.scatters, glue0.scatters, sections):
        X2, J2, det2 = section.eval_jacobian_dets(P2)
        X = np.column_stack([np.repeat(X2, zq.size, axis=0), np.tile(zq, len(P2))])
        u = cyl_exact_field(X).reshape(len(P2), zq.size, 3).transpose(0, 2, 1)  # (point, component, z)
        A2 = _adjugate(J2)
        slices.append((A2, J2, det2, u))
        fh = A2 @ _lift(u[:, :2] * wz, Psi.T) * W2[:, None, None]  # adj J2 f_h, z integrated
        fv = _lift(u[:, 2] * wz, chi.T) * (det2 * W2)[:, None]
        bh, bv = bh + S1.T @ (E1.T @ fh.reshape(-1, n)), bv + S0.T @ (E0.T @ fv)
    xh, xv = np.zeros((glue1.ndof, n)), np.zeros((glue0.ndof, n - 1))
    xh[free1, 0] = solve_source((C + M1).tocsc(), bh[free1, 0])
    M1G = M1 @ G
    GMG, GM1 = G.T @ M1G + M0, M1G.T
    for k in range(1, n):
        s = math.sqrt(mu[k])
        A = sp.bmat([[C + (mu[k] + 1) * M1, -s * M1G], [-s * GM1, GMG]], format="csc")
        x = solve_source(A, np.r_[bh[free1, k], bv[free0, k - 1]])
        xh[free1, k], xv[free0, k - 1] = x[: free1.size], x[free1.size :]
    err2 = 0.0
    for S1, S0, (A2, J2, det2, u) in zip(glue1.scatters, glue0.scatters, slices):
        h, v = S1 @ xh, S0 @ xv  # the modal fields on the patch's section dofs
        U, rot = (E1 @ h).reshape(-1, 2, n), R1 @ h
        w, gw = E0 @ v, (E1 @ (tcx.operators["grad"] @ v)).reshape(-1, 2, n - 1)  # grad Y0 lies in Y1
        # the reference field and curl over z, pushed forward: J^-T = adj J^T / det J and J / det J
        ch = np.stack([_lift(gw[:, 1], chi) - _lift(U[:, 1], dPsi), _lift(U[:, 0], dPsi) - _lift(gw[:, 0], chi)], 1)
        du = np.concatenate([np.swapaxes(A2, 1, 2) @ _lift(U, Psi) / det2[:, None, None], _lift(w, chi)[:, None]], 1) - u
        dc = np.concatenate([J2 @ ch, _lift(rot, Psi)[:, None]], 1) / det2[:, None, None]  # the exact curl is 0
        err2 += np.sum((W2 * det2)[:, None, None] * wz * (du**2 + dc**2))
    return glue1.ndof * n + glue0.ndof * (n - 1), free1.size * n + free0.size * (n - 1), math.sqrt(err2)


# -- straight waveguide ----------------------------------------------------------

GUIDE_PATCHES = 2  # z patches of the straight guide, joined C^0 at a p-fold knot


def waveguide_scattering(k: float = 1.2, degree: int = 2, n_section: int = 3, nz: int = 2, length: float = 1.0):
    """TE10 pass-through on a straight guide with square section (0, pi)^2,
    a prism over (0, length) with PEC side walls and ports at both ends.

    The section's (C, M1, G) are the port's rot-rot, mass and kernel; with
    its M0 and the vertical matrices they give the 3D system as Kronecker
    products (:func:`_prism_pencil`).  The vertical space has
    ``GUIDE_PATCHES * nz`` spans and a p-fold knot at each patch joint.
    The port term is (e_0 e_0^T + e_n e_n^T) x M1 on the horizontal block,
    the vertical B-splines at the ends being the traces there; the incident
    mode's load M1 e sits at vertical index 0.

    Returns a dict with the port cutoff, reflection and transmission
    coefficients and the system size.  A guide without length, or a k at or
    below the TE10 cutoff (no propagating mode), is a ValueError.
    """
    if length <= 0:
        raise ValueError(f"waveguide length must be positive, got length = {length}")
    b = [i / n_section for i in range(n_section + 1)]
    tcx = build_tspline_complex(derive_complex_meshes(tensor_raw_tmesh(b, b), degree))
    ps = PatchSet([square_geometry()], [Vector2D(tcx)])
    (C, M1, M0, G), _, (free1, free0) = _section_matrices(ps, {0: ALL_FACES_2D})
    k10sq, e = solve_port_mode(C, M1, G)
    if not k > math.sqrt(k10sq):  # a negative k included
        raise ValueError(f"k = {k} is not above the TE10 cutoff sqrt(k10^2) = {math.sqrt(k10sq):.6g}: no propagating mode")
    beta = math.sqrt(k * k - k10sq)

    spans = GUIDE_PATCHES * nz
    joints = [1 if i % nz else degree for i in range(1, spans)]
    kv_z = KnotVector(degree, [Fraction(i, spans) for i in range(spans + 1)], [degree + 1, *joints, degree + 1])
    MB, MD = length * _vertical_mass(kv_z, "B"), _vertical_mass(kv_z.derived(), "D") / length
    K, M = _prism_pencil(C, M1, M0, G, MB, MD, grad_matrix_1d(kv_z).toarray())
    n, nh = kv_z.n, kv_z.n * free1.size
    ends = np.diag(np.r_[1.0, np.zeros(n - 2), 1.0])  # e_0 e_0^T + e_n e_n^T
    port = sp.block_diag([sp.kron(ends, M1), sp.csr_matrix((K.shape[0] - nh,) * 2)])
    Me = M1 @ e
    rhs = np.zeros(K.shape[0], dtype=complex)
    rhs[: free1.size] = 2j * beta * Me
    x = solve_source(((K - k * k * M).astype(complex) + 1j * beta * port).tocsc(), rhs)
    I1, I2 = complex(x[: free1.size] @ Me), complex(x[nh - free1.size : nh] @ Me)
    R, T = compute_scattering(I1, I2, float(e @ Me), beta, length)
    return {
        "k10_squared": k10sq,
        "beta": beta,
        "R": R,
        "T": T,
        "dofs": ps.spaces[0].dim * n + tcx.Y0.dim * (n - 1),
        "free_dofs": int(free1.size * n + free0.size * (n - 1)),
    }
