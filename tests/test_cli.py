"""CLI subcommands, exit codes, file formats and round-trips."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splinecomplex import cli
from splinecomplex.cli import build_parser, main
from splinecomplex.problems import EigenRun
from splinecomplex.serialization import (
    PROBLEM_KEYS,
    PROBLEM_SCHEMA,
    dump_json,
    geometry_from_dict,
    geometry_to_dict,
    load_json,
    patchset_from_dict,
    patchset_to_dict,
    tmesh_from_dict,
    tmesh_to_dict,
    validate_problem,
)
from splinecomplex.solvers import EigenResult

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, tmp_path):
    return main(["--out", str(tmp_path)] + args)


def test_check_complex(tmp_path):
    assert run_cli(["check-complex", "--degrees", "2,2", "--n", "4,4"], tmp_path) == 0
    report = load_json(tmp_path / "complex_report.json")
    assert report["passed"] and report["certified"]


def test_check_complex_rejects_fewer_functions_than_degree_plus_one(tmp_path, capsys):
    # the requested dimension is not silently raised to p + 1
    assert run_cli(["check-complex", "--degrees", "3,2", "--n", "2,6"], tmp_path) == 2
    assert "direction 1" in capsys.readouterr().err
    assert not (tmp_path / "complex_report.json").exists()


def test_tmesh_check_fig_extensions(tmp_path):
    code = run_cli(
        ["tmesh", "check", "--mesh", str(FIXTURES / "fig_extensions.json"), "--degrees", "2,3"],
        tmp_path,
    )
    assert code == 0
    rep = load_json(tmp_path / "tmesh_report.json")
    assert rep["analysis_suitable"] and rep["euler"]
    by_orient = {e["orientation"]: e for e in rep["extensions"]}
    assert by_orient["h"]["face_bays"] == 1 and by_orient["h"]["edge_bays"] == 1
    assert by_orient["v"]["face_bays"] == 2 and by_orient["v"]["edge_bays"] == 1
    assert (by_orient["h"]["from"], by_orient["h"]["to"]) == ("1/3", "5/6")
    assert (by_orient["v"]["from"], by_orient["v"]["to"]) == ("1/3", "5/6")


@pytest.mark.parametrize("degrees", ["3", "3,3,3"])
def test_tmesh_check_needs_two_degrees(tmp_path, capsys, degrees):
    code = run_cli(["tmesh", "check", "--mesh", str(FIXTURES / "square_tmesh_l0.json"), "--degrees", degrees], tmp_path)
    assert code == 2
    assert "--degrees needs two comma-separated degrees" in capsys.readouterr().err
    assert not (tmp_path / "tmesh_report.json").exists()


@pytest.mark.parametrize(
    "degrees, message",
    [("3,x", "--degrees needs two comma-separated degrees p1,p2, got '3,x'"), ("0,3", "degree must be at least 1")],
    ids=["not-an-integer", "degree-0"],
)
def test_tmesh_check_needs_integer_degrees_of_at_least_1(tmp_path, capsys, degrees, message):
    # the same validation errors as ``tmesh complex``, not int()'s message
    code = run_cli(["tmesh", "check", "--mesh", str(FIXTURES / "square_tmesh_l0.json"), "--degrees", degrees], tmp_path)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "tmesh_report.json").exists()


def test_solve_eig_square(tmp_path):
    code = run_cli(["solve-eig", "--problem", str(FIXTURES / "square_p3.json")], tmp_path)
    assert code == 0
    rep = load_json(tmp_path / "eigenvalues.json")
    assert rep["dofs"] == 74 and rep["zero_count"] == 21
    assert abs(rep["nonzero_eigenvalues"][0] - 1.00001) < 5e-6
    csv = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert csv[0] == "index,value"


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    dump_json({"kind": "solve-eig", "unknown_key": 1}, bad)
    assert run_cli(["solve-eig", "--problem", str(bad)], tmp_path) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["solve-eig", "--problem", str(missing)], tmp_path) == 2
    wrong_kind = tmp_path / "wrong.json"
    dump_json({"kind": "solve-source"}, wrong_kind)
    assert run_cli(["solve-eig", "--problem", str(wrong_kind)], tmp_path) == 2
    unread = tmp_path / "unread.json"
    dump_json({"kind": "solve-eig", "benchmark": "square", "zero_tol": 1e-6}, unread)
    assert run_cli(["solve-eig", "--problem", str(unread)], tmp_path) == 2
    dump_json({"kind": "solve-eig", "mesh": "square_tmesh_l0.json"}, unread)
    assert run_cli(["solve-eig", "--problem", str(unread)], tmp_path) == 2
    # a schema key that the file's command (or formulation) does not read
    # exits 2 naming it, not silently ignored
    for spec, key in (
        ({"kind": "solve-eig", "benchmark": "lsection", "levels": [3], "level": 0, "degree": 1}, "benchmark"),
        ({"kind": "convergence", "eigencount": 3}, "eigencount"),
        ({"kind": "solve-waveguide", "level": 1}, "level"),
        ({"kind": "solve-eig", "formulation": "laplace2d", "nz": 2}, "nz"),
        ({"kind": "solve-eig", "nz": 2}, "nz"),
    ):
        dump_json(spec, unread)
        capsys.readouterr()
        assert run_cli([spec["kind"], "--problem", str(unread)], tmp_path) == 2, spec
        assert repr(key) in capsys.readouterr().err, spec


@pytest.mark.parametrize(
    "spec, names",
    [
        ({"k": 1.2, "length": -1.0}, ["length = -1.0"]),
        ({"length": 0}, ["length = 0"]),
        ({"k": 0.5}, ["k = 0.5", "cutoff sqrt(k10^2) = 1.001"]),
        ({"k": -1.5}, ["k = -1.5", "cutoff"]),
    ],
)
def test_waveguide_without_length_or_propagating_mode_exits_2(tmp_path, capsys, spec, names):
    # a guide of no length, or a k at or below the TE10 cutoff, is bad input
    # named in the message, and no report is written
    problem = tmp_path / "guide.json"
    dump_json({"kind": "solve-waveguide", **spec}, problem)
    assert run_cli(["solve-waveguide", "--problem", str(problem)], tmp_path) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not (tmp_path / "waveguide_report.json").exists()


def _set_face_entry(value):
    def edit(d):
        d["faces"][0][2] = value

    return edit


def _set_multiplicities(*entries):
    def edit(d):
        d["multiplicities"] = [dict(zip(("axis", "index", "mult"), e)) for e in entries]

    return edit


@pytest.mark.parametrize(
    "edit, name",
    [
        (_set_face_entry(1.9), "(0, 0, 1.9, 1)"),
        (_set_face_entry(True), "(0, 0, True, 1)"),
        (_set_multiplicities(("x", 1, 0)), "multiplicity 0 of the x line 1"),
        (_set_multiplicities(("x", 1, 2.7)), "multiplicity 2.7 of the x line 1"),
        (_set_multiplicities(("y", 2, True)), "multiplicity True of the y line 2"),
        (_set_multiplicities(("z", 1, 2)), "('z', 1)"),
        (_set_multiplicities(("x", 0, 2)), "('x', 0)"),
        (_set_multiplicities(("y", 4, 2)), "('y', 4)"),
        (_set_multiplicities(("x", 99, 2)), "('x', 99)"),
        (_set_multiplicities(("x", True, 2)), "('x', True)"),
        (_set_multiplicities(("x", 1, 2), ("x", 1, 3)), "x line 1 is given twice"),
        (lambda d: d.update(multiplicities=[{"axis": "x", "index": 1, "mult": 2, "note": 1}]), "'note'"),
        (lambda d: d["faces"].__setitem__(0, 5), "face 5 is not"),
        (lambda d: d.update(multiplicities=[5]), "multiplicity entry 5"),
        (lambda d: d.update(comment="l0"), "'comment'"),
        (lambda d: d.update(faces=5), "'faces' holds 5,"),
        (lambda d: d.update(breakpoints1=None), "'breakpoints1' holds None,"),
        (lambda d: d.update(breakpoints1=[[0], [1]]), "'breakpoints1' holds [[0], [1]],"),
        (lambda d: d.update(multiplicities=3), "'multiplicities' holds 3,"),
        (_set_multiplicities((["x"], 1, 2)), "'axis': ['x']"),
        (_set_multiplicities(({"a": 1}, 1, 2)), "'axis': {'a': 1}"),
        (_set_multiplicities(("x", [1], 2)), "'index': [1]"),
        (lambda d: d["breakpoints2"].__setitem__(-1, True), "breakpoints2 entry True is not an exact rational"),
        (lambda d: d["breakpoints2"].__setitem__(1, 0.1), "breakpoints2 entry 0.1 is not an exact rational"),
    ],
)
def test_malformed_tmesh_file_exits_2_naming_the_entry(tmp_path, capsys, edit, name):
    # a face that is not four integers, a multiplicity that is no integer of
    # at least 1 or names no interior line, a breakpoint that is no exact
    # rational, a key the loader does not read, and an entry of the wrong
    # JSON type exit 2 before any mesh is rendered,
    # instead of being truncated, dropped, ignored or crashing
    d = load_json(FIXTURES / "square_tmesh_l0.json")
    edit(d)
    mesh = tmp_path / "mesh.json"
    dump_json(d, mesh)
    for cmd in (["check", "--degrees", "3,3"], ["complex", "--degree", "3"]):
        assert run_cli(["tmesh", cmd[0], "--mesh", str(mesh), *cmd[1:]], tmp_path) == 2, cmd
        err = capsys.readouterr().err
        assert name in err, err
    assert not list(tmp_path.glob("*report*.json"))


class _ReadKeys(dict):
    """A problem spec that records every key a command reads."""

    def __init__(self, spec, seen):
        super().__init__(spec)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


@pytest.fixture
def stubbed_drivers(monkeypatch):
    """The problem drivers replaced by instant stand-ins; returns the
    recorder that collects the keys each run reads (``keys``) and the
    driver calls (name, positional, keyword arguments) it makes (``calls``)."""
    run = EigenRun(3, 2, EigenResult(np.array([0.0, 1.0, 2.0]), 1))
    waves = {"k10_squared": 1.0, "beta": 0.5, "R": 0j, "T": 1 + 0j, "dofs": 3, "free_dofs": 2}
    recorder = argparse.Namespace(keys=set(), calls=[])
    for name, result in (
        ("square_eigenproblem", run),
        ("lsection_laplace_eigenproblem", run),
        ("thick_l_eigenproblem", run),
        ("cylinder_sector_source", (3, 2, 0.1)),
        ("waveguide_scattering", waves),
    ):
        monkeypatch.setattr(cli.problems, name, lambda *a, name=name, result=result, **k: recorder.calls.append((name, a, k)) or result)
    validate = cli.validate_problem
    monkeypatch.setattr(cli, "validate_problem", lambda d: _ReadKeys(validate(d), recorder.keys))
    return recorder


def test_problem_files_hold_only_what_their_command_reads(stubbed_drivers, tmp_path):
    """Every key of every problem fixture is read by its command, every
    key of the schema by some command, and the kinds are the commands that
    take ``--problem``."""
    read = set()
    kinds = set()
    for f in sorted(FIXTURES.glob("*.json")):
        spec = load_json(f)
        if "kind" not in spec:
            continue
        stubbed_drivers.keys.clear()
        assert run_cli([spec["kind"], "--problem", str(f)], tmp_path) == 0, f.name
        assert set(spec) <= stubbed_drivers.keys, (f.name, set(spec) - stubbed_drivers.keys)
        read |= stubbed_drivers.keys
        kinds.add(spec["kind"])
    assert read <= set(PROBLEM_SCHEMA["properties"]) == {"kind"}.union(*PROBLEM_KEYS.values())
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    takes_problem = {n for n, p in sub.choices.items() if any("--problem" in a.option_strings for a in p._actions)}
    assert kinds == takes_problem == set(PROBLEM_SCHEMA["properties"]["kind"]["enum"]) == set(PROBLEM_KEYS)


def test_drivers_get_only_the_keys_the_file_holds(stubbed_drivers, tmp_path):
    """A key the file lacks is not passed, so each driver's signature holds
    the only default; ``eigencount`` is passed as ``count``."""
    f = tmp_path / "problem.json"
    for spec, calls in (
        ({"kind": "solve-eig", "formulation": "laplace2d"}, [("lsection_laplace_eigenproblem", (), {})]),
        ({"kind": "solve-eig", "formulation": "curlcurl3d", "eigencount": 2, "nz": 3}, [("thick_l_eigenproblem", (), {"count": 2, "nz": 3})]),
        ({"kind": "solve-eig", "level": 1}, [("square_eigenproblem", (), {"level": 1})]),
        ({"kind": "solve-source", "tensor": True}, [("cylinder_sector_source", (), {"tensor": True})]),
        ({"kind": "solve-waveguide", "k": 1.5}, [("waveguide_scattering", (), {"k": 1.5})]),
        ({"kind": "convergence", "benchmark": "lsection", "levels": [0, 2]}, [("lsection_laplace_eigenproblem", (0,), {}), ("lsection_laplace_eigenproblem", (2,), {})]),
        ({"kind": "convergence", "degree": 2, "levels": [1]}, [("square_eigenproblem", (1,), {"degree": 2})]),
    ):
        dump_json(spec, f)
        stubbed_drivers.calls.clear()
        assert run_cli([spec["kind"], "--problem", str(f)], tmp_path) == 0, spec
        assert stubbed_drivers.calls == calls, spec
    # a file with every key of its command passes each one that is not a
    # driver choice or a level list on to the driver
    example = {"integer": 2, "number": 1.5, "boolean": True, "array": [1]}
    for kind, keys in PROBLEM_KEYS.items():
        props = PROBLEM_SCHEMA["properties"]
        spec = {"kind": kind, **{k: props[k]["enum"][-1] if "enum" in props[k] else example[props[k]["type"]] for k in keys}}
        dump_json(spec, f)
        stubbed_drivers.calls.clear()
        assert run_cli([kind, "--problem", str(f)], tmp_path) == 0, spec
        passed = {"count" if k == "eigencount" else k for k in keys} - {"formulation", "benchmark", "levels"}
        assert [set(kw) for _, _, kw in stubbed_drivers.calls] == [passed], kind


def test_every_schema_benchmark_has_a_convergence_driver(stubbed_drivers, tmp_path):
    spec = tmp_path / "convergence.json"
    for bench in PROBLEM_SCHEMA["properties"]["benchmark"]["enum"]:
        dump_json({"kind": "convergence", "benchmark": bench, "levels": [0]}, spec)
        assert run_cli(["convergence", "--problem", str(spec)], tmp_path) == 0, bench


def test_byte_identical_reruns(tmp_path):
    # a mesh check, and the straight guide and the thick L end to end (unstubbed)
    runs = [
        (["tmesh", "check", "--mesh", str(FIXTURES / "square_tmesh_l0.json"), "--degrees", "3,3"], "tmesh_report.json"),
        (["solve-waveguide", "--problem", str(FIXTURES / "straight_guide.json")], "waveguide_report.json"),
        (["solve-eig", "--problem", str(FIXTURES / "thickL_p4.json")], "eigenvalues.json"),
    ]
    for args, report in runs:
        a, b = tmp_path / args[0] / "a", tmp_path / args[0] / "b"
        for out in (a, b):
            assert main(["--out", str(out)] + args) == 0
        assert (a / report).read_bytes() == (b / report).read_bytes()
    rep = load_json(tmp_path / "solve-waveguide" / "a" / "waveguide_report.json")
    assert (rep["dofs"], rep["free_dofs"]) == (430, 222) and rep["abs_R"] < 0.01 and abs(rep["abs_T"] - 1) < 0.01
    rep = load_json(tmp_path / "solve-eig" / "a" / "eigenvalues.json")
    assert (rep["dofs"], rep["zero_count"]) == (6660, 1280) and len(rep["nonzero_eigenvalues"]) == 5


def test_fixture_round_trips():
    for f in sorted(FIXTURES.glob("*.json")):
        d = load_json(f)
        if "breakpoints1" in d:
            again = tmesh_to_dict(tmesh_from_dict(d))
            assert tmesh_from_dict(again) == tmesh_from_dict(d), f.name
        elif "knot_vectors" in d:
            geo = geometry_from_dict(d)
            geo2 = geometry_from_dict(geometry_to_dict(geo))
            assert geo2.kvs == geo.kvs
            np.testing.assert_array_equal(geo2.control_points, geo.control_points)
        elif "patches" in d:
            geoms, itfs = patchset_from_dict(d)
            d2 = patchset_to_dict(geoms, itfs)
            geoms2, itfs2 = patchset_from_dict(d2)
            assert itfs2 == itfs
            assert len(geoms2) == len(geoms)
        elif "kind" in d:
            validate_problem(d)


def test_regenerate_fixtures_rebuilds_every_shipped_file(tmp_path, monkeypatch):
    # the script run into an empty directory writes exactly fixtures/, byte
    # for byte: the builders, the interfaces and the extruded slices agree
    import importlib.util

    path = FIXTURES.parent / "demos" / "regenerate_fixtures.py"
    spec = importlib.util.spec_from_file_location("regenerate_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f.name for f in FIXTURES.iterdir())
    for f in FIXTURES.iterdir():
        assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name


@pytest.mark.parametrize("demo", ["01_univariate_basics", "02_discrete_complex", "03_tmesh_and_tsplines", "04_maxwell_benchmarks"])
def test_demo_runs(demo):
    # each demo runs to the end in seconds and reports no failed check
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(FIXTURES.parent / "demos" / f"{demo}.py")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout, proc.stdout


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "splinecomplex.cli", "--out", str(tmp_path), "check-complex", "--degrees", "2", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exactness: pass" in proc.stdout


def test_tmesh_complex_report(tmp_path):
    code = run_cli(
        ["tmesh", "complex", "--mesh", str(FIXTURES / "square_tmesh_l0.json"), "--degree", "3"],
        tmp_path,
    )
    assert code == 0
    rep = load_json(tmp_path / "tmesh_complex_report.json")
    assert rep["dims"] == [43, 74, 32]
    assert rep["passed"] and rep["extended_meshes_agree"]
    assert set(rep["derived_meshes"]) == {"M0", "M1_1", "M1_2", "M2"}
    # the vector mesh for the first component carries the two added segments
    m11 = {tuple(s) for s in rep["derived_meshes"]["M1_1"]["segments"]}
    assert ("h", "1/4", "0", "3/4") in m11


def test_lsection_float_zero_exits_3(tmp_path, capsys):
    # the Dirichlet Laplacian's kernel is empty: at L9 its first eigenvalue
    # is below the float-zero guard of the largest, which is a numerical
    # failure, never a zero in the report
    f = tmp_path / "lsection_l9.json"
    dump_json({**load_json(FIXTURES / "lsection_p4.json"), "level": 9}, f)
    assert run_cli(["solve-eig", "--problem", str(f)], tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: 2 deflated eigenvalue(s) below 1e-08") and err.rstrip().endswith("exact kernel of dimension 0")
    assert not (tmp_path / "eigenvalues.json").exists()


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import scipy.linalg

    def not_spd(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(scipy.linalg, "cholesky", not_spd)
    assert run_cli(["solve-eig", "--problem", str(FIXTURES / "square_p3.json")], tmp_path) == 3


def test_a_kernel_without_a_spanning_tree_exits_3(tmp_path, capsys, monkeypatch):
    # the square's gradient kernel mixed by a dense rotation: the same
    # kernel, but a generic basis with no incidence rows, which the
    # deflation refuses as a numerical failure
    from splinecomplex import problems

    solve = problems.solve_generalized_eig

    def rotated(K, M, kernel, *args, **kwargs):
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((kernel.shape[1],) * 2))[0]
        return solve(K, M, kernel @ Q, *args, **kwargs)

    monkeypatch.setattr(problems, "solve_generalized_eig", rotated)
    assert run_cli(["solve-eig", "--problem", str(FIXTURES / "square_p3.json")], tmp_path) == 3
    assert "numerical failure: the kernel columns are linearly dependent" in capsys.readouterr().err
    assert not (tmp_path / "eigenvalues.json").exists()


def test_convergence_csv(tmp_path):
    from splinecomplex.problems import square_eigenproblem

    spec = tmp_path / "convergence.json"
    dump_json({"kind": "convergence", "benchmark": "square", "degree": 3, "levels": [0, 1]}, spec)
    assert run_cli(["convergence", "--problem", str(spec)], tmp_path) == 0
    rows = []
    for level in (0, 1):
        run = square_eigenproblem(level)
        rows.append(f"{run.dofs},{run.result.nonzero[0] - 1:.17g}\n")
    assert [r.split(",")[0] for r in rows] == ["74", "184"]
    assert (tmp_path / "convergence.csv").read_bytes() == ("dofs,value\n" + "".join(rows)).encode()


def test_convergence_reads_tensor_for_the_cylinder_only(tmp_path, capsys):
    # the cylinder row of a tensor mesh is the driver's tensor solve (at
    # level 1 its dofs differ from the T-mesh's); another benchmark exits 2
    # naming the key
    from splinecomplex.problems import cylinder_sector_source

    spec = tmp_path / "convergence.json"
    dump_json({"kind": "convergence", "benchmark": "cylinder-sector", "degree": 1, "levels": [1], "tensor": True}, spec)
    assert run_cli(["convergence", "--problem", str(spec)], tmp_path) == 0
    dofs, _, err = cylinder_sector_source(1, 1, tensor=True)
    assert dofs != cylinder_sector_source(1, 1)[0]
    assert (tmp_path / "convergence.csv").read_text() == f"dofs,value\n{dofs},{err:.17g}\n"
    for bench in ("square", "lsection"):
        dump_json({"kind": "convergence", "benchmark": bench, "tensor": True}, spec)
        capsys.readouterr()
        assert run_cli(["convergence", "--problem", str(spec)], tmp_path) == 2, bench
        assert "'tensor'" in capsys.readouterr().err, bench


def test_readme_file_formats_list_each_commands_keys():
    """The README's problem-file bullets name, per command, exactly the keys
    of its ``PROBLEM_KEYS`` entry (values in parentheses aside), so the docs
    cannot drift from the schema."""
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1].split("\n## ", 1)[0]
    block = section.split("* Problem JSON", 1)[1].split("\n* ", 1)[0]
    listed = {}
    for item in block.split("\n  * ")[1:]:
        command, *keys = re.findall(r"`([\w-]+)`", re.sub(r"\([^)]*\)", "", item))
        listed[command] = set(keys)
    assert listed == {kind: set(keys) for kind, keys in PROBLEM_KEYS.items()}


def test_readme_command_line_matches_parser():
    """Every ``splinecomplex`` line of the README's command-line block
    parses, and its ``Flags:`` line names exactly the parser's top-level
    options, so a removed flag cannot stay in the docs."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("splinecomplex ")]
    assert commands
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    flags = next(line for line in section.splitlines() if line.startswith("Flags:"))
    options = {o for a in parser._actions if not isinstance(a, argparse._HelpAction) for o in a.option_strings}
    assert set(re.findall(r"--[\w-]+", flags)) == options
