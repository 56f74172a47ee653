#!/usr/bin/env python3
"""Univariate B-splines: evaluation, anchors, Greville sites, refinement.

Walks through the exact-rational knot vector kernel: partition of unity,
anchor placement by degree parity, knot insertion leaving the curve
untouched, and the O(h^2) convergence of the control polygon.
"""

from fractions import Fraction

import numpy as np

from splinecomplex.bspline import KnotVector, eval_basis, insert_knot
from splinecomplex.geometry import GeometryMap, control_distance

F = Fraction

kv = KnotVector(2, (F(0), F(1, 2), F(1)), (3, 1, 3))
print("degree:", kv.degree)
print("breakpoints:", [str(b) for b in kv.breakpoints])
print("multiplicities:", list(kv.multiplicities))
print("dimension n =", kv.n)
print("anchors:", [str(a.position) for a in kv.anchors()])
print("Greville:", [str(g) for g in kv.greville()])

xs = np.linspace(0, 1, 9)
vals = eval_basis(kv, xs)
print("partition of unity:", np.allclose(vals.sum(axis=1), 1.0, atol=1e-14))

# insert a knot: the represented curve does not move
coeffs = np.array([0.0, 1.0, -0.5, 2.0])
kv2, c2 = insert_knot(kv, coeffs, F(1, 4))
before = eval_basis(kv, xs) @ coeffs
after = eval_basis(kv2, xs) @ c2
print("insertion curve change:", np.abs(after - before).max())

# control polygon of an interpolated circle arc converges at second order
p, nspans = 3, 4
kva = KnotVector.uniform(p, nspans)
g = np.array([float(x) for x in kva.greville()])
target = np.column_stack([np.cos(g * np.pi / 2), np.sin(g * np.pi / 2)])
cp = np.linalg.solve(eval_basis(kva, g), target)
geo = GeometryMap((kva,), cp)
dists = [control_distance(geo, 200)]
for sweep in range(3):
    for a, b in list(zip(geo.kvs[0].breakpoints, geo.kvs[0].breakpoints[1:])):
        kva, cp = insert_knot(kva, cp, (a + b) / 2)
        geo = GeometryMap((kva,), cp)
    dists.append(control_distance(geo, 200))
print("control polygon distances:", ["%.2e" % d for d in dists])
print("ratios (should approach 4):", ["%.2f" % (a / b) for a, b in zip(dists, dists[1:])])
