"""Benchmark of splinecomplex: run one workload (or all) and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cavity2d --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh worker processes (``worker.py``) with ``src`` on
the path and every BLAS/OpenMP pool pinned to one thread.  With
``--trace 0`` two set-up-only workers run before the measuring worker, and
``setup_s`` is the median of the three set-up times; the other end-to-end
metrics come from the measuring worker.  With ``--trace 1`` one worker
reports the per-layer metrics.  Metric names and units are read from
``BENCHMARK.json``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
BUDGET_S = 170.0  # per workload; a run must end within 180 s

# One thread in every pool, on both commits of a comparison; hash order fixed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(root: Path, args: list, deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(root / "src")}
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", name, "--seed", str(seed)]
    reports = []
    if not trace:
        reports = [spawn(root, base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    measuring = spawn(root, base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    reports.append(measuring)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if trace:
        values, specs = measuring["per_layer"], spec["per_layer"]
    else:
        values = {
            "time_to_solution_s": statistics.median(measuring["times"]),
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "peak_rss_mb": measuring["peak_rss_mb"],
            "accuracy_err": measuring["accuracy_err"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for metric, v in metrics.items():
        print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed meshes")
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "splinecomplex" / "__init__.py").is_file():
        print("perfbench: run from a checkout root that holds src/splinecomplex", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    print(f"perfbench: seed {args.seed}", file=sys.stderr)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, spec, name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
