"""One benchmark process: import qocsim, run ops in a closed loop, gate each op.

    python3 worker.py CONFIG.json

is started by ``run.py`` in a fresh interpreter whose working directory is a
fresh temporary directory.  The config names the workload, the ops (input
point plus reference outputs, in order), how long to keep looping after the
first op, and whether to trace.  The first op is always run; it ends the
set-up interval, which starts just before ``import qocsim``.  Further ops run
one after another until ``steady_seconds`` have passed or the ops run out.

The last line of standard output is a JSON summary; a traced worker also
writes its spans to ``spans.json`` in the working directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from gate import check
from workloads import WORKLOADS, run_op


def main() -> int:
    with open(sys.argv[1]) as fh:
        config = json.load(fh)
    workload = WORKLOADS[config["workload"]]
    ops = config["ops"]

    t0 = time.perf_counter()
    import qocsim

    tracer = None
    if config["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    op_seconds: list[float] = []
    failures: list[dict] = []
    steady_start = setup_s = 0.0
    i = 0
    while i < len(ops) and (i < 2 or time.perf_counter() - steady_start < config["steady_seconds"]):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = run_op(workload, ops[i]["params"])
            problems = None
        except Exception as exc:  # any failure counts against fail_frac; keep looping
            problems = [f"{type(exc).__name__}: {exc}"]
        end = time.perf_counter()
        if problems is None:
            problems = check(out, ops[i]["ref"])
        if problems:
            failures.append({"op": i, "params": ops[i]["params"], "problems": problems})
        op_seconds.append(end - start)
        if i == 0:
            setup_s = end - t0
            steady_start = time.perf_counter()
        i += 1
    steady_wall = time.perf_counter() - steady_start

    if tracer is not None:
        with open("spans.json", "w") as fh:
            json.dump({"wrapped": sorted(tracer.wrapped), "spans": tracer.spans}, fh)

    import numpy
    import scipy

    summary = {
        "qocsim_file": qocsim.__file__,
        "setup_s": setup_s,
        "op_seconds": op_seconds,
        "steady_wall_s": steady_wall,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "qocsim": qocsim.__version__,
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
