"""Regenerate the stored reference table of one workload.

    PYTHONPATH=src python3 perfbench/make_reference.py --workload sweep-cold

draws the workload's pool of input points from a fixed seed, runs every point
once through the same op the benchmark times, and writes the outputs to
``perfbench/reference/<workload>.json``.  The tables in the repository were
taken from the seed version of ``qocsim``; regenerate them only when the
physics is meant to change, never to make a failing op pass.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from gate import check
from workloads import WORKLOADS, Workload, run_op

POOL_SEED = 9012708
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def draw_pool(workload: Workload) -> list[dict[str, float]]:
    rng = random.Random(f"{POOL_SEED}:{workload.name}")
    return [
        dict(workload.fixed, **{k: rng.uniform(lo, hi) for k, (lo, hi) in workload.ranges.items()})
        for _ in range(workload.pool_size)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import numpy
    import qocsim
    import scipy

    points = []
    for i, point in enumerate(draw_pool(workload)):
        out = run_op(workload, point)
        problems = check(out, out)  # invariants only: compared with itself
        if problems:
            print(f"point {i} {point}: {problems}", file=sys.stderr)
            return 1
        points.append({"params": point, "outputs": out})
        print(f"{workload.name} {i + 1}/{workload.pool_size} d={out['cutoff']}", file=sys.stderr)

    doc = {
        "workload": workload.name,
        "pool_seed": POOL_SEED,
        "versions": {
            "qocsim": qocsim.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "points": points,
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(points)} points to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
