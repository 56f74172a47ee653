"""One benchmark process: import, warm up, run checked operations, report.

``run.py`` starts this file with ``src`` on the path and the BLAS pool
pinned.  The process imports the library, runs the workload's small input
once (set-up), then runs the full input until ``--seconds`` have passed,
at least once.  Every operation is the library call plus its check against
the frozen outputs.  The last stdout line is a JSON report for ``run.py``.

With ``--trace 1`` one untraced operation runs first, then the layer
wrappers are installed and the traced operations follow; the report holds
per-layer figures per operation and the spans go to ``out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, check, load_reference

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    seconds: float
    out: dict | None
    problems: list
    accuracy: float = 1.0  # of a failed or raising op

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(workload, params, ref, full, runner=None) -> Outcome:
    """Time one library call plus its check; an exception fails the op."""

    def op():
        out = workload.run(params)
        problems = check(workload, out, ref, full)
        return Outcome(0.0, out, problems, 1.0 if problems else workload.accuracy(out))

    start = time.perf_counter()
    try:
        outcome = runner("op", op) if runner else op()
    except Exception:
        outcome = Outcome(0.0, None, ["raised:\n" + traceback.format_exc()])
    outcome.seconds = time.perf_counter() - start
    for p in outcome.problems:
        print(f"{workload.name}: check failed: {p}", file=sys.stderr)
    return outcome


def measure(workload, ref, seconds, runner=None) -> list:
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(run_op(workload, workload.full, ref, True, runner))
    return outcomes


def per_layer(workload, tr: tracing.Tracer, traced: list, untraced: Outcome) -> dict:
    """Per-operation layer figures of the traced operations."""
    n = len(traced)
    c = tr.counts
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = tr.self_s[layer] / n
        m[f"{layer}.calls"] = tr.calls[layer] / n
    m["bspline.points_per_call"] = c["bspline.points"] / c["bspline.eval_calls"] if c["bspline.eval_calls"] else 0.0
    m["exactrank.attempts_per_rank"] = c["exactrank.attempts"] / c["exactrank.ranks"] if c["exactrank.ranks"] else 0.0
    m["solvers.dense_bytes"] = c["solvers.dense_bytes"] / n
    done = [o.out for o in traced + [untraced] if o.out is not None]
    dofs, free = workload.sizes(done[0]) if done else (0, 0)
    m["size.dofs"] = dofs
    m["size.free_dofs"] = free
    m["size.elements"] = c["size.elements"] / n
    m["size.nnz"] = c["size.nnz"]
    m["trace.overhead_ratio"] = statistics.median(o.seconds for o in traced) / untraced.seconds - 1.0
    return m


def write_spans(path: Path, workload: str, seed: int, tr: tracing.Tracer, ops: int):
    t0 = tr.spans[0][1] if tr.spans else 0.0
    spans = [[name, start - t0, end - t0, parent] for name, start, end, parent in tr.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops, "spans": spans}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, help="time.monotonic() when the launcher started this process")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    import splinecomplex  # noqa: F401  (import is part of set-up)

    workload = WORKLOADS[args.workload]
    ref = load_reference()[workload.name]
    outcomes = [run_op(workload, workload.small, ref["small"], False)]
    report = {"setup_s": time.monotonic() - t0}

    if not args.setup_only:
        if args.trace:
            untraced = run_op(workload, workload.full, ref["full"], True)
            tr = tracing.Tracer()
            restore = tracing.install(tr)
            tr.enabled = True
            try:
                traced = measure(workload, ref["full"], args.seconds, tr.root)
            finally:
                tr.enabled = False
                restore()
            outcomes += [untraced] + traced
            report["per_layer"] = per_layer(workload, tr, traced, untraced)
            write_spans(OUT_DIR / f"trace-{workload.name}.json", workload.name, args.seed, tr, len(traced))
        else:
            measured = measure(workload, ref["full"], args.seconds)
            outcomes += measured
            report["times"] = [o.seconds for o in measured]
            report["accuracy_err"] = statistics.median(o.accuracy for o in measured)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report["attempted"] = len(outcomes)
    report["failed"] = sum(not o.ok for o in outcomes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
