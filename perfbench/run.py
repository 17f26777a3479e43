"""Run one workload of the qocsim benchmark and print its metrics.

    python3 perfbench/run.py --workload thermal-steady --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the program is imported from ``src/``.
Every worker is a fresh interpreter with a fresh temporary working directory
under ``.perfbench_tmp/``, its own bytecode cache and its own
``QOCSIM_OUT_DIR``, so nothing carries over between runs.  The BLAS thread
count is fixed here, in the workers' environment, and recorded.

``--trace 0`` reports the end-to-end metrics: ``SETUP_SAMPLES`` set-ups (one
of them the measured worker's own first op) and one untraced closed loop of
``--seconds``.  ``--trace 1`` reports the per-layer metrics: an untraced and a
traced closed loop of ``--seconds``/2 each over the same ops, which also gives
the tracing overhead.  Metric names and units come from ``BENCHMARK.json``.
The last line of output is the JSON result; the line before it records the
provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
STRATA = 32  # a power of two; every pool holds a multiple of it


def op_sequence(workload_name: str, seed: int) -> list[dict]:
    """The workload's pool of reference points in the seed's order.

    The pool is sorted by the cost-setting parameter and cut into ``STRATA``
    equal strata.  The sequence visits the strata in bit-reversed order (a van
    der Corput sequence), so that every prefix of it samples that parameter's
    range evenly, and takes from each stratum the next point of a shuffle
    drawn from the seed.  Every run, whatever its seed and length, then sees
    nearly the same mix of cheap and dear ops, and no point is repeated.
    """
    workload = WORKLOADS[workload_name]
    doc = json.loads((HERE / "reference" / f"{workload_name}.json").read_text())
    ranked = sorted(
        ({"params": p["params"], "ref": p["outputs"]} for p in doc["points"]),
        key=lambda op: op["params"][workload.key],
    )
    size = len(ranked) // STRATA
    rng = random.Random(seed)
    strata = [ranked[i * size : (i + 1) * size] for i in range(STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    bits = STRATA.bit_length() - 1
    order = [int(f"{i:0{bits}b}"[::-1], 2) for i in range(STRATA)]
    return [strata[order[i % STRATA]][i // STRATA] for i in range(size * STRATA)]


class Runner:
    """Starts workers under one temporary directory and one deadline."""

    def __init__(self, workload: str, tmp_root: Path, deadline: float):
        self.workload = workload
        self.tmp_root = tmp_root
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[dict] = []
        self.versions: dict = {}

    def worker(self, ops: list[dict], steady_seconds: float, trace: bool) -> dict:
        workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=self.tmp_root))
        (workdir / "out").mkdir()
        config = workdir / "config.json"
        config.write_text(json.dumps(
            {"workload": self.workload, "ops": ops, "steady_seconds": steady_seconds, "trace": trace}
        ))
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(workdir / "pycache"),
            "QOCSIM_OUT_DIR": str(workdir / "out"),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
        })
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(summary["qocsim_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"qocsim was imported from {summary['qocsim_file']}, not from src/")
        if trace:
            summary["trace"] = json.loads((workdir / "spans.json").read_text())
        self.attempted += len(summary["op_seconds"])
        self.failures += summary["failures"]
        self.versions = summary["versions"]
        return summary


def end_to_end(runner: Runner, ops: list[dict], seconds: float) -> tuple[dict, dict]:
    setups = [runner.worker(ops[:1], 0.0, False)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    loop = runner.worker(ops, seconds, False)
    setups.append(loop["setup_s"])
    steady = loop["op_seconds"][1:]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(steady) / loop["steady_wall_s"],
        "op_p50_s": statistics.median(steady),
        "peak_rss_mb": loop["peak_rss_mb"],
        "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
    }
    return values, {"setup_samples_s": setups, "steady_ops": len(steady), "steady_op_s": steady}


def per_layer(runner: Runner, ops: list[dict], seconds: float) -> tuple[dict, dict]:
    plain = runner.worker(ops, seconds / 2, False)["op_seconds"]
    traced = runner.worker(ops, seconds / 2, True)
    layers = layer_metrics(traced["trace"]["spans"], set(traced["trace"]["wrapped"]),
                           traced["op_seconds"])
    n = min(len(plain), len(traced["op_seconds"]))
    values = layers["values"]
    values["trace.overhead_frac"] = sum(traced["op_seconds"][1:n]) / sum(plain[1:n]) - 1.0
    shares = layers["self_share"]
    return values, {
        "steady_ops": layers["steady_ops"],
        "self_share": shares,
        "dominant_layer": max(shares, key=shares.get) if shares else None,
    }


def git_commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None  # not a git checkout, or the ref is packed


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description="qocsim benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qocsim" / "__init__.py").is_file():
        print(f"error: no qocsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    ops = op_sequence(args.workload, args.seed)
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_base))
    runner = Runner(args.workload, tmp_root, start + DEADLINE_S)
    try:
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(runner, ops, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_base.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for failure in runner.failures[:5]:
        print(f"failed op {failure['op']} {failure['params']}: {failure['problems']}", file=sys.stderr)
    fail_frac = len(runner.failures) / runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {BLAS_THREADS}  fail_frac {fail_frac:.4g} "
          f"({len(runner.failures)}/{runner.attempted})")
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>12s} {m['unit']}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **runner.versions,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_loc": src_loc(),
        "fail_frac": fail_frac,
        **detail,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
