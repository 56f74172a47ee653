"""Spline and T-spline de Rham complexes with benchmark Maxwell solvers.

Layers, bottom up:

* :mod:`splinecomplex.bspline` - exact univariate kernel (rational knots,
  Cox-de Boor, derivative splits, the one knot insertion and line rendering);
* :mod:`splinecomplex.tensormesh`, :mod:`splinecomplex.complexes` - tensor
  meshes with zero-measure entities and the compatible spline spaces whose
  differential operators are signed incidence matrices;
* :mod:`splinecomplex.geometry`, :mod:`splinecomplex.multipatch` - spline
  and NURBS patch maps, the four pullbacks, control complexes, conforming
  interface merging;
* :mod:`splinecomplex.tmesh`, :mod:`splinecomplex.tspline` - analysis-
  suitable T-meshes, anchor/local-knot-vector inference and the
  two-dimensional T-spline complexes;
* :mod:`splinecomplex.assembly`, :mod:`splinecomplex.solvers`,
  :mod:`splinecomplex.problems` - Galerkin assembly on extended meshes,
  eigen/source/waveguide solvers and the benchmark drivers;
* :mod:`splinecomplex.cli` - the command-line front end.
"""

from .bspline import KnotVector, insert_knot
from .complexes import build_complex, restrict_boundary, verify_exactness
from .geometry import GeometryMap, build_control_complex, control_distance
from .multipatch import Interface, PatchSet, build_glue, check_conformity
from .solvers import solve_generalized_eig, solve_port_mode, solve_source
from .tensormesh import build_tensor_mesh
from .tmesh import RawTMesh, TMesh2D, TsplineSpace, tensor_raw_tmesh, validate_tmesh
from .tspline import build_tspline_complex, derive_complex_meshes, verify_t_exactness

__version__ = "0.1.0"

__all__ = [
    "KnotVector",
    "insert_knot",
    "build_complex",
    "restrict_boundary",
    "verify_exactness",
    "GeometryMap",
    "build_control_complex",
    "control_distance",
    "Interface",
    "PatchSet",
    "build_glue",
    "check_conformity",
    "solve_generalized_eig",
    "solve_port_mode",
    "solve_source",
    "build_tensor_mesh",
    "RawTMesh",
    "TMesh2D",
    "TsplineSpace",
    "tensor_raw_tmesh",
    "validate_tmesh",
    "build_tspline_complex",
    "derive_complex_meshes",
    "verify_t_exactness",
    "__version__",
]
