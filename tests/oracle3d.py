"""Reference 3D load and H(curl) error on a Complex3D patch.

The library solves prisms on their sections (``problems``); these two
routines integrate on the full 3D Gauss rule of a patch, evaluating its 3D
map at every point, and are what the section paths are checked against.
Both read the factored z-first tables of ``assembly.assemble_matrix_3d``.
"""

import math

import numpy as np

from splinecomplex.assembly import Complex3D, _element_tables, _x1_tables, _z_factors
from splinecomplex.geometry import apply_pullback, apply_pushforward


def assemble_load_3d(cx3: Complex3D, geom, f):
    """Load vector int f . v for the curl-conforming space of one patch, the
    z direction contracted first like in ``assemble_matrix_3d``."""
    order = cx3.tcx.degree + 2
    (P, W), nelem, blocks = _x1_tables(cx3, order)
    X, J, det = geom.eval_jacobian_dets(P.reshape(-1, 3))
    fhat = apply_pullback(2, J, det, np.asarray(f(X))) * W.reshape(-1, 1)
    Z, ranges = _z_factors(blocks, False)
    nzs = Z.shape[0]
    Hf = fhat.reshape(nelem, nzs, order * order, 3 * order) @ Z.reshape(nzs, 3 * order, -1)  # z first
    dofs, vals = [], []
    for e in range(nelem):
        cell_dofs, _, X2 = _element_tables(blocks, e, order)
        dofs.append(cell_dofs)
        vals.append(np.concatenate([(Xm[:, 0].T @ Hf[e][:, :, r]).reshape(nzs, -1) for Xm, r in zip(X2, ranges)], 1))
    return np.bincount(np.concatenate(dofs).ravel(), weights=np.concatenate(vals).ravel(), minlength=cx3.dim)


def hcurl_error_3d(cx3: Complex3D, geom, coeffs, u_exact, curlu_exact):
    """H(curl) error (l2_err, curl_err) of a discrete field against
    closed-form references, by quadrature on the extended mesh of one patch."""
    order = cx3.tcx.degree + 2
    coeffs = np.asarray(coeffs)
    (P, W), nelem, blocks = _x1_tables(cx3, order)
    fields = []
    for curl in (False, True):
        Z, ranges = _z_factors(blocks, curl)
        nzs = Z.shape[0]
        Y = np.empty((nelem, nzs, order * order, Z.shape[-1]))
        for e in range(nelem):  # the 2D factors against the coefficients
            cell_dofs, pos, X2 = _element_tables(blocks, e, order, curl)
            c = coeffs[cell_dofs]
            for Xm, r, p in zip(X2, ranges, pos):
                cm = c[:, p].reshape(nzs, Xm.shape[-1], -1)
                Y[e][:, :, r] = (Xm.reshape(-1, Xm.shape[-1]) @ cm).reshape(nzs, order * order, -1)
        fields.append((Y @ Z.reshape(nzs, 3 * order, -1).transpose(0, 2, 1)).reshape(-1, 3))
    X, J, det = geom.eval_jacobian_dets(P.reshape(-1, 3))
    du = apply_pushforward(1, J, det, fields[0]) - np.asarray(u_exact(X))
    dc = apply_pushforward(2, J, det, fields[1]) - np.asarray(curlu_exact(X))
    wdet = W.ravel() * det
    return math.sqrt(np.sum(wdet * np.sum(du * du, axis=1))), math.sqrt(np.sum(wdet * np.sum(dc * dc, axis=1)))
