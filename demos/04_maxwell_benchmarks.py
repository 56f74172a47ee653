#!/usr/bin/env python3
"""The desk-scale Maxwell benchmarks, end to end.

Square cavity eigenvalues on the T-meshed (0, pi)^2 (compare m^2 + n^2),
the L-section Dirichlet eigenvalue against the L-membrane reference, the
thick-L Maxwell eigenvalue against the same reference, the cylinder-sector
source problem on T-spline and tensor sections (the T-spline space reaches
the same H(curl) error with fewer dofs), and the straight-guide TE10
pass-through with reflection/transmission coefficients.  It runs in a few
seconds.
"""

import numpy as np

from splinecomplex.problems import (
    cylinder_sector_source,
    lsection_laplace_eigenproblem,
    square_eigenproblem,
    thick_l_eigenproblem,
    waveguide_scattering,
)

print("== square cavity, degree 3 ==")
for level in (0, 1):
    run = square_eigenproblem(level)
    nz = run.result.nonzero[:8]
    print(f"level {level}: dofs {run.dofs}, zero modes {run.result.zero_count}")
    print("  first nonzero eigenvalues:", np.round(nz, 5))

print("\n== L-shaped section, degree 4, corner-refined T-meshes ==")
reference = 9.63972384472
for level in (0, 1, 2):
    run = lsection_laplace_eigenproblem(level)
    lam = float(run.result.nonzero[0])
    print(f"level {level}: dofs {run.dofs}, lambda1 = {lam:.8f}, gap = {lam - reference:.2e}")

print("\n== thick L (section times (0, 1)), degree 3, from two section eigensolves ==")
for level in (0, 1, 2):
    run = thick_l_eigenproblem(level, degree=3, count=1)
    lam = float(run.result.nonzero[0])
    print(f"level {level}: free dofs {run.system_size}, zero modes {run.result.zero_count}, lambda1 = {lam:.8f}, gap = {lam - reference:.2e}")

print("\n== cylinder sector source, degree 3: T-spline against tensor section ==")
print("level  T-spline dofs  H(curl) error  tensor dofs  H(curl) error")
for level in (0, 1, 2):
    (t_dofs, _, t_err), (b_dofs, _, b_err) = (cylinder_sector_source(level, tensor=tensor) for tensor in (False, True))
    print(f"L{level}     {t_dofs:13d}  {t_err:13.6e}  {b_dofs:11d}  {b_err:13.6e}")

print("\n== straight waveguide pass-through ==")
res = waveguide_scattering()
print(f"port cutoff k10^2 = {res['k10_squared']:.6f}")
print(f"|R| = {abs(res['R']):.3e}   |T| = {abs(res['T']):.8f}")
