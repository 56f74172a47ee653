"""Tests of the benchmark itself, on the small input of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tracing  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS, _square_analytic, load_reference  # noqa: E402

REF = load_reference()


def _wrong(name):
    """The small reference of a workload with one frozen output altered."""
    ref = copy.deepcopy(REF[name]["small"])
    if "nonzero" in ref:
        ref["nonzero"][0] *= 1 + 1e-8
    elif "hcurl_error" in ref:
        ref["hcurl_error"] *= 1 + 1e-8
    else:
        ref["ranks"]["d0"] += 1
    return ref


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_input_passes_its_checks(name):
    w = WORKLOADS[name]
    outcome = run_op(w, w.small, REF[name]["small"], full=False)
    assert outcome.ok, outcome.problems
    assert outcome.accuracy > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_reference_fails_the_op(name):
    w = WORKLOADS[name]
    outcome = run_op(w, w.small, _wrong(name), full=False)
    assert not outcome.ok
    assert outcome.accuracy == 1.0


def test_wrong_zero_count_fails_the_op():
    w = WORKLOADS["cavity2d"]
    ref = copy.deepcopy(REF["cavity2d"]["small"])
    ref["zero_count"] += 1
    outcome = run_op(w, w.small, ref, full=False)
    assert [p for p in outcome.problems if p.startswith("zero_count")]


def test_square_analytic_check():
    exact = [1.0, 1.0, 2.0, 4.0, 4.0, 5.0, 5.0, 8.0, 9.0, 9.0]
    assert _square_analytic({"nonzero": exact}) == []
    assert _square_analytic({"nonzero": exact[:-1] + [9.0 + 2e-5]})
    assert _square_analytic({"nonzero": exact[:5]})


def test_frozen_full_outputs_hold_the_paper_checks():
    full = REF["cavity2d"]["full"]
    assert full["zero_count"] == 833 and _square_analytic(full) == []
    assert REF["thickl3d"]["full"]["zero_count"] == 783
    cert = REF["certify"]["full"]
    assert cert["dims"] == [3433, 6764, 3332]
    assert cert["certified"] and all(cert["identities"].values())


def _traced(name):
    w = WORKLOADS[name]
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    tr.enabled = True
    try:
        outcome = run_op(w, w.small, REF[name]["small"], False, tr.root)
    finally:
        tr.enabled = False
        restore()
    return tr, outcome


def test_tracer_attributes_time_to_layers_and_restores():
    from splinecomplex import assembly, problems, tmesh

    original = problems.assemble_matrix_2d
    tr, outcome = _traced("cavity2d")
    assert outcome.ok, outcome.problems
    for layer in ("bspline", "tmesh", "tspline", "geometry", "assembly", "solvers", "problems"):
        assert tr.calls[layer] > 0, layer
    assert tr.calls["multipatch"] == 0 and tr.calls["exactrank"] == 0
    total = sum(tr.self_s.values())
    assert total == pytest.approx(outcome.seconds, rel=0.05)
    assert tr.counts["size.elements"] > 0 and tr.counts["solvers.dense_bytes"] > 0
    assert tr.counts["bspline.points"] >= tr.counts["bspline.eval_calls"] > 0
    names = {s[0] for s in tr.spans}
    assert {"op", "problems.square_eigenproblem", "assembly.assemble_matrix_2d"} <= names
    assert all(s[3] < i for i, s in enumerate(tr.spans))  # parents open first
    assert problems.assemble_matrix_2d is original is assembly.assemble_matrix_2d
    assert "__wrapped__" not in vars(tmesh.TsplineSpace.__init__)


def test_tracer_keeps_classes():
    from splinecomplex import tmesh

    cls = tmesh.TsplineSpace
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        assert tmesh.TsplineSpace is cls
        assert "__wrapped__" in vars(cls.__init__)
    finally:
        restore()


def test_certify_is_exact_layer_only():
    tr, outcome = _traced("certify")
    assert outcome.ok, outcome.problems
    assert tr.counts["bspline.eval_calls"] == 0  # no tabulation, only exact knot work
    assert tr.calls["exactrank"] > 0 and tr.calls["complexes"] > 0
    assert tr.counts["exactrank.attempts"] >= tr.counts["exactrank.ranks"] == 4


def test_run_refuses_a_directory_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert {f"{l}.self_s" for l in tracing.LAYERS} <= layer_names
