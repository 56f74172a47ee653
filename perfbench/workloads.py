"""The benchmark workloads: one library call each, checked against frozen outputs.

Each workload runs one public ``splinecomplex`` entry point on a fixed
benchmark mesh and reduces the result to a small dict of outputs.  The
outputs are compared with ``reference.json`` (written by ``freeze.py`` from
the library as it stood when the benchmark was defined): counts, ranks and
flags exactly, eigenvalues to 1e-10 relative and the H(curl) error to 1e-9
relative.  The ``full`` parameters are the measured operation; ``small`` is
the warm-up input of the same family, also used by the tests.

Library entry points are looked up on their modules at call time, so the
wrappers installed by ``tracer.install`` see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Relative tolerances per output key; keys not listed must match exactly.
REL_TOL = {"nonzero": 1e-10, "hcurl_error": 1e-9}

EIG_KEEP = 20  # nonzero eigenvalues kept per eigenproblem
SQUARE_EXACT = (1.0, 1.0, 2.0, 4.0, 4.0, 5.0, 5.0, 8.0, 9.0, 9.0)  # m^2 + n^2
SQUARE_ANALYTIC_TOL = 1e-5  # absolute, on the full cavity2d mesh
THICK_L_FIRST = 9.63972384472  # first nonzero Maxwell eigenvalue of the thick L
EXACT_FLOOR = 2.0**-52  # accuracy_err of an exact result: below float resolution


def _eigen_outputs(run) -> dict:
    res = run.result
    return {
        "dofs": int(run.dofs),
        "free_dofs": int(run.system_size),
        "zero_count": int(res.zero_count),
        "nonzero": [float(v) for v in res.nonzero[:EIG_KEEP]],
    }


def run_cavity2d(params) -> dict:
    from splinecomplex import problems

    return _eigen_outputs(problems.square_eigenproblem(**params))


def run_thickl3d(params) -> dict:
    from splinecomplex import problems

    # count=None: with a count the function keeps only the lowest values, all
    # of them zero modes, so ``nonzero`` comes back empty.
    return _eigen_outputs(problems.thick_l_eigenproblem(count=None, **params))


def run_cylinder3d(params) -> dict:
    from splinecomplex import problems

    dofs, free, err = problems.cylinder_sector_source(**params)
    return {"dofs": int(dofs), "free_dofs": int(free), "hcurl_error": float(err)}


def run_certify(params) -> dict:
    from splinecomplex import benchmarks, tspline

    raw = benchmarks.square_raw_tmesh(params["level"])
    cx = tspline.build_tspline_complex(tspline.derive_complex_meshes(raw, params["degree"]))
    rep = tspline.verify_t_exactness(cx)
    return {
        "dims": [int(d) for d in cx.dims],
        "ranks": {k: int(v) for k, v in rep.ranks.items()},
        "identities": {k: bool(v) for k, v in rep.identities.items()},
        "certified": bool(rep.certified),
    }


def _square_accuracy(out) -> float:
    vals = out["nonzero"][: len(SQUARE_EXACT)]
    return max(abs(v - e) / e for v, e in zip(vals, SQUARE_EXACT))


def _square_analytic(out) -> list:
    vals = out["nonzero"][: len(SQUARE_EXACT)]
    if len(vals) < len(SQUARE_EXACT):
        return [f"only {len(vals)} nonzero eigenvalues"]
    dev = max(abs(v - e) for v, e in zip(vals, SQUARE_EXACT))
    return [] if dev <= SQUARE_ANALYTIC_TOL else [f"eigenvalues off m^2+n^2 by {dev:.3e}"]


def _certify_accuracy(out) -> float:
    return EXACT_FLOOR if _certify_exact(out) == [] else 1.0


def _certify_exact(out) -> list:
    failed = [k for k, ok in out["identities"].items() if not ok]
    if not out["certified"]:
        failed.append("certified")
    return [f"identity fails: {k}" for k in failed]


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[dict], dict]
    accuracy: Callable[[dict], float]
    full: dict
    small: dict
    # Checks that hold on the full input independent of the frozen outputs.
    full_checks: Callable[[dict], list] = lambda out: []
    # Checks that hold on every input.
    checks: Callable[[dict], list] = lambda out: []

    def sizes(self, out) -> tuple:
        """(dofs, free dofs) of the operation."""
        if "dims" in out:
            total = sum(out["dims"])
            return total, total
        return out["dofs"], out["free_dofs"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cavity2d",
            run_cavity2d,
            _square_accuracy,
            full={"level": 3, "degree": 3},
            small={"level": 0, "degree": 3},
            full_checks=_square_analytic,
        ),
        Workload(
            "cylinder3d",
            run_cylinder3d,
            lambda out: out["hcurl_error"],
            full={"level": 1, "nz": 2},
            small={"level": 0, "degree": 1, "nz": 1},
        ),
        Workload(
            "certify",
            run_certify,
            _certify_accuracy,
            full={"level": 4, "degree": 3},
            small={"level": 1, "degree": 3},
            checks=_certify_exact,
        ),
        Workload(
            "thickl3d",
            run_thickl3d,
            lambda out: abs(out["nonzero"][0] - THICK_L_FIRST) / THICK_L_FIRST,
            full={"level": 0, "degree": 3},
            small={"level": 0, "degree": 1, "nz": 1},
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def compare(out: dict, ref: dict) -> list:
    """Differences of ``out`` from the frozen outputs ``ref``, as messages."""
    problems = []
    for key, want in ref.items():
        got = out.get(key)
        tol = REL_TOL.get(key)
        if tol is None:
            if got != want:
                problems.append(f"{key}: got {got!r}, expected {want!r}")
            continue
        g = np.atleast_1d(np.asarray(got, dtype=float))
        w = np.atleast_1d(np.asarray(want, dtype=float))
        if g.shape != w.shape:
            problems.append(f"{key}: got {g.size} values, expected {w.size}")
        elif np.any(np.abs(g - w) > tol * np.abs(w)):
            dev = float(np.max(np.abs(g - w) / np.abs(w)))
            problems.append(f"{key}: relative deviation {dev:.3e} exceeds {tol:.0e}")
    return problems


def check(workload: Workload, out: dict, ref: dict, full: bool) -> list:
    problems = compare(out, ref) + workload.checks(out)
    if full:
        problems += workload.full_checks(out)
    return problems
