"""Write reference.json: the outputs every benchmark operation is checked against.

Run once from the checkout root when a workload's input changes, never to
make a failing check pass:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/freeze.py
"""

from __future__ import annotations

import json

from workloads import REFERENCE_FILE, WORKLOADS


def main():
    ref = {w.name: {"full": w.run(w.full), "small": w.run(w.small)} for w in WORKLOADS.values()}
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
