"""Self-check of the per-op correctness gate.

    python3 perfbench/selfcheck.py

For each workload, one worker runs the first op of seed 0 twice: against its
stored reference, and against a copy with one reference value corrupted.  The
first must pass and the second must count as failed, so ``fail_frac`` is 1/2.
Then, in this process, the first wigner-map point is run at a larger explicit
cutoff (a legitimate change, which must pass) and with the BS3 sign swapped (a
wrong answer, which must fail).  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys
import tempfile
import time
from pathlib import Path

from gate import check
from run import ROOT, Runner, op_sequence
from workloads import WORKLOADS, run_op

# (workload, reference field, corrupted value as a function of the true one)
CORRUPTIONS = [
    ("sweep-cold", "p_bc", lambda v: v * 1.05),
    ("thermal-steady", "fidelity_pd2_vs_input", lambda v: v - 0.05),
    ("wigner-map", "pd1_min_wigner", lambda v: v * 1.05),
]


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench_selfcheck-", dir=ROOT) as tmp:
        for name, field, corrupt in CORRUPTIONS:
            op = op_sequence(name, 0)[0]
            bad = copy.deepcopy(op)
            bad["ref"][field] = corrupt(op["ref"][field])
            runner = Runner(name, Path(tmp), time.monotonic() + 170.0)
            runner.worker([op, bad], 0.0, False)
            failed = [f["op"] for f in runner.failures]
            passed = failed == [1]
            ok &= passed
            print(f"{name}: corrupted {field}: fail_frac {len(failed)}/{runner.attempted}"
                  f" (failed ops {failed}) -> {'ok' if passed else 'WRONG'}")

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS["wigner-map"]
    op = op_sequence("wigner-map", 0)[0]
    larger = dict(op["params"], cutoff=op["ref"]["cutoff"] + 4)
    problems = check(run_op(workload, larger), op["ref"])
    ok &= not problems
    print(f"wigner-map: cutoff {larger['cutoff']} instead of {op['ref']['cutoff']}: "
          f"{problems or 'passes'} -> {'WRONG' if problems else 'ok'}")
    swapped = dict(op["params"], swap_bs3_sign=True)
    problems = check(run_op(workload, swapped), op["ref"])
    ok &= bool(problems)
    print(f"wigner-map: BS3 sign swapped: {len(problems)} problems -> {'ok' if problems else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
