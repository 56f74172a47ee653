"""Command-line front end.

Subcommands: ``check-complex``, ``tmesh check``, ``tmesh complex``,
``solve-eig``, ``solve-source``, ``solve-waveguide``, ``convergence``.
Results are written as JSON (and CSV plot tables) into ``--out``; runs are
deterministic, exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import problems
from .bspline import KnotVector
from .complexes import build_complex, verify_exactness
from .serialization import (
    dump_json,
    load_json,
    tmesh_from_dict,
    validate_problem,
)
from .solvers import NumericalError
from .tmesh import TMeshError, validate_tmesh
from .tspline import build_tspline_complex, derive_complex_meshes, verify_t_exactness

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _integers(flag, text, needs, count=None):
    """The comma list ``text`` given to ``flag`` as non-negative integers.
    An entry that is not one, or a list of another length than ``count``,
    raises ValueError naming the flag, what it ``needs`` and the entry."""
    entries = text.split(",")
    bad = [e for e in entries if not (e.isascii() and e.isdigit())]
    if bad or count not in (None, len(entries)):
        why = f": {bad[0]!r} is not a non-negative integer" if bad else ""
        raise ValueError(f"{flag} needs {needs}, got {text!r}{why}")
    return [int(e) for e in entries]


def cmd_check_complex(args):
    degrees = _integers("--degrees", args.degrees, "comma-separated degrees")
    sizes = _integers("--n", args.n, "comma-separated dimensions, one per degree", len(degrees))
    for d, (p, n) in enumerate(zip(degrees, sizes), 1):
        if n < p + 1:
            raise ValueError(f"--n gives {n} functions in direction {d}, fewer than degree + 1 = {p + 1}")
    kvs = [KnotVector.uniform(p, n - p) for p, n in zip(degrees, sizes)]
    cx = build_complex(kvs)
    rep = verify_exactness(cx)
    out = _out_dir(args)
    dump_json(
        {
            "dims": list(cx.dims),
            "ranks": {k: int(v) for k, v in rep.ranks.items()},
            "identities": {k: bool(v) for k, v in rep.identities.items()},
            "certified": bool(rep.certified),
            "passed": bool(rep.passed),
        },
        out / "complex_report.json",
    )
    print(f"exactness: {'pass' if rep.passed else 'FAIL'} (certified={rep.certified})")
    return EXIT_OK if rep.passed else EXIT_NUMERICAL


def cmd_tmesh_check(args):
    degrees = _integers("--degrees", args.degrees, "two comma-separated degrees p1,p2", 2)
    raw = tmesh_from_dict(load_json(args.mesh))
    mesh = validate_tmesh(raw, tuple(degrees))
    census = mesh.census()
    exts = mesh.compute_extensions()
    as_ok, pair = mesh.is_analysis_suitable()
    strong_ok, reason = mesh.check_strong_as()
    report = {
        "census": census,
        "euler": bool(mesh.euler()),
        "t_junctions": [
            {"x": str(mesh.xs[i]), "y": str(mesh.ys[j]), "orientation": o}
            for (i, j, o, s) in mesh.t_junctions()
        ],
        "extensions": [
            {
                "orientation": e.orientation,
                "line": str((mesh.ys if e.orientation == "h" else mesh.xs)[e.line_index]),
                "from": str((mesh.xs if e.orientation == "h" else mesh.ys)[e.full_range[0]]),
                "to": str((mesh.xs if e.orientation == "h" else mesh.ys)[e.full_range[1]]),
                "face_bays": e.face_bays,
                "edge_bays": e.edge_bays,
            }
            for e in exts
        ],
        "analysis_suitable": bool(as_ok),
        "strongly_analysis_suitable": bool(strong_ok),
    }
    out = _out_dir(args)
    dump_json(report, out / "tmesh_report.json")
    print(
        f"T-mesh: {census['F0']} faces, {census['V0']} vertices, {census['E0']} edges; "
        f"AS={as_ok} strong-AS={strong_ok}"
    )
    return EXIT_OK


def cmd_tmesh_complex(args):
    raw = tmesh_from_dict(load_json(args.mesh))
    p = int(args.degree)
    cm = derive_complex_meshes(raw, p)
    tcx = build_tspline_complex(cm)
    rep = verify_t_exactness(tcx)
    out = _out_dir(args)

    def mesh_dict(m):
        return {
            "degrees": list(m.degrees),
            "lines_x": [str(v) for v in m.xs],
            "lines_y": [str(v) for v in m.ys],
            "segments": sorted(
                [o, str(c), str(a), str(b)] for (o, c, a, b) in m.line_segments_by_value()
            ),
        }

    dump_json(
        {
            "degree": p,
            "dims": list(tcx.dims),
            "ranks": {k: int(v) for k, v in rep.ranks.items()},
            "identities": {k: bool(v) for k, v in rep.identities.items()},
            "extended_meshes_agree": bool(cm.extended_meshes_agree()),
            "derived_meshes": {
                "M0": mesh_dict(cm.M0),
                "M1_1": mesh_dict(cm.M11),
                "M1_2": mesh_dict(cm.M12),
                "M2": mesh_dict(cm.M2),
            },
            "passed": bool(rep.passed),
        },
        out / "tmesh_complex_report.json",
    )
    print(f"T-spline complex dims {tcx.dims}: {'pass' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_NUMERICAL


def _problem(args, kind):
    """The validated problem of ``--problem``, which must be of ``kind``."""
    spec = validate_problem(load_json(args.problem))
    if spec["kind"] != kind:
        raise ValueError(f"problem kind is not {kind}")
    return spec


# Problem keys passed to the drivers under another name.
_PARAMETERS = {"eigencount": "count"}


def _arguments(spec, *skip):
    """The driver keyword arguments of a problem file: its keys but
    ``kind`` and ``skip``, renamed to the driver's parameters.  A key the
    file lacks is not passed, so the driver's signature holds its default."""
    return {_PARAMETERS.get(key, key): spec[key] for key in spec if key not in ("kind", *skip)}


def _run_eig(spec):
    formulation = spec.get("formulation", "rotrot2d")
    if "nz" in spec and formulation != "curlcurl3d":
        raise ValueError(f"formulation {formulation} does not read the problem key 'nz'")
    driver = {
        "rotrot2d": problems.square_eigenproblem,
        "laplace2d": problems.lsection_laplace_eigenproblem,
        "curlcurl3d": problems.thick_l_eigenproblem,
    }[formulation]
    return driver(**_arguments(spec, "formulation"))


def cmd_solve_eig(args):
    spec = _problem(args, "solve-eig")
    run = _run_eig(spec)
    out = _out_dir(args)
    values = run.result.values.tolist()
    dump_json(
        {
            "dofs": run.dofs,
            "system_size": run.system_size,
            "zero_count": run.result.zero_count,
            "eigenvalues": values,
            "nonzero_eigenvalues": run.result.nonzero.tolist(),
        },
        out / "eigenvalues.json",
    )
    _write_csv(out / "eigenvalues.csv", "index,value", list(enumerate(values)))
    nz = run.result.nonzero[:6]
    print(f"dofs={run.dofs} zeros={run.result.zero_count} first nonzero: {np.round(nz, 6)}")
    return EXIT_OK


def cmd_solve_source(args):
    spec = _problem(args, "solve-source")
    dofs, free, err = problems.cylinder_sector_source(**_arguments(spec))
    out = _out_dir(args)
    dump_json({"dofs": dofs, "free_dofs": free, "hcurl_error": err}, out / "source_report.json")
    print(f"dofs={dofs} H(curl) error={err:.6e}")
    return EXIT_OK


def cmd_solve_waveguide(args):
    res = problems.waveguide_scattering(**_arguments(_problem(args, "solve-waveguide")))
    out = _out_dir(args)
    dump_json(
        {
            "k10_squared": res["k10_squared"],
            "beta": res["beta"],
            "R": [res["R"].real, res["R"].imag],
            "T": [res["T"].real, res["T"].imag],
            "abs_R": abs(res["R"]),
            "abs_T": abs(res["T"]),
            "dofs": res["dofs"],
            "free_dofs": res["free_dofs"],
        },
        out / "waveguide_report.json",
    )
    print(f"k10^2={res['k10_squared']:.8f} |R|={abs(res['R']):.3e} |T|={abs(res['T']):.6f}")
    return EXIT_OK


def cmd_convergence(args):
    spec = _problem(args, "convergence")
    bench = spec.get("benchmark", "square")
    if "tensor" in spec and bench != "cylinder-sector":
        raise ValueError(f"benchmark {bench} does not read the problem key 'tensor'")
    kwargs = _arguments(spec, "benchmark", "levels")
    rows = []
    for lev in spec.get("levels", [0, 1]):
        if bench == "square":
            run = problems.square_eigenproblem(lev, **kwargs)
            value = float(run.result.nonzero[0] - 1.0)
            rows.append((run.dofs, value))
        elif bench == "lsection":
            run = problems.lsection_laplace_eigenproblem(lev, **kwargs)
            rows.append((run.dofs, float(run.result.nonzero[0] - 9.63972384472)))
        elif bench == "cylinder-sector":
            dofs, _, err = problems.cylinder_sector_source(lev, **kwargs)
            rows.append((dofs, err))
        else:
            raise ValueError(f"no convergence driver for {bench}")
    out = _out_dir(args)
    _write_csv(out / "convergence.csv", "dofs,value", rows)
    print("\n".join(f"{d},{_fmt(v)}" for d, v in rows))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="splinecomplex", description=__doc__)
    ap.add_argument("--out", default="out", help="output directory for reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-complex", help="build a tensor complex and verify exactness")
    p.add_argument("--degrees", required=True, help="comma list, e.g. 3,3,3")
    p.add_argument("--n", required=True, help="per-direction dimensions, e.g. 4,4,4")
    p.set_defaults(func=cmd_check_complex)

    tm = sub.add_parser("tmesh", help="T-mesh utilities")
    tms = tm.add_subparsers(dest="tmesh_command", required=True)
    p = tms.add_parser("check", help="validate a T-mesh and report extensions/AS")
    p.add_argument("--mesh", required=True)
    p.add_argument("--degrees", required=True, help="p1,p2")
    p.set_defaults(func=cmd_tmesh_check)
    p = tms.add_parser("complex", help="build the T-spline complex and verify exactness")
    p.add_argument("--mesh", required=True)
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(func=cmd_tmesh_complex)

    for name, fn in (
        ("solve-eig", cmd_solve_eig),
        ("solve-source", cmd_solve_source),
        ("solve-waveguide", cmd_solve_waveguide),
        ("convergence", cmd_convergence),
    ):
        p = sub.add_parser(name)
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    import jsonschema

    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        TMeshError,
        ValueError,
        KeyError,
        FileNotFoundError,
        json.JSONDecodeError,
        jsonschema.exceptions.ValidationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
