"""Exit codes and artifacts of the ``qocsim`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qocsim
from qocsim import cli
from qocsim.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

FIG1_QOC = Path(qocsim.__file__).parent / "circuits" / "fig1.qoc"


def _run(*args):
    return CliRunner().invoke(main, list(args))


def test_run_fig1_succeeds_with_byte_identical_report(tmp_path):
    reports = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        res = _run("run", "fig1", "--alpha", "0.5", "--out", str(out))
        assert res.exit_code == EXIT_OK, res.output
        reports.append((out / "fig1_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "args",
    [
        ("run", "no-such-circuit.qoc"),
        ("run", "fig1", "--alpha", "1", "--nbar", "1"),
        ("run", "fig1", "--T", "abc"),
        ("run", "fig1", "--T", "1.5"),
        ("run", "fig1", "--eta-pd1", "1.5"),
        ("sweep", "--alpha", "0.5,x"),
        ("sweep", "--T", "1.5"),
        ("verify-commutation", "--alphas", "0.6,x"),
        ("verify-commutation", "--alphas", "nan"),
        ("verify-commutation", "--alphas", "1e400"),
        ("verify-commutation", "--T", "1.5"),
        ("run", "fig1", "--cutoff", "1"),
        ("run", "fig1", "--nbar", "-1"),
        ("run", "fig1", "--fock", "-1"),
        ("run", "fig1", "--leak-budget", "0"),
        ("run", str(FIG1_QOC), "--cutoff", "1"),
        ("sweep", "--cutoff", "1"),
        ("sweep", "--leak-budget", "-1e-6"),
        ("verify-commutation", "--cutoff", "1"),
        ("verify-commutation", "--leak-budget", "0"),
        ("run", "fig1", "--alpha", "nan"),
        ("run", "fig1", "--s", "nan"),
        ("run", "fig1", "--s", "inf"),
        ("run", "fig1", "--nbar", "inf"),
        ("sweep", "--alpha", "nan"),
        ("run", "fig1", "--leak-budget", "inf"),
        ("run", str(FIG1_QOC), "--leak-budget", "nan"),
        ("run", str(FIG1_QOC), "--leak-budget", "inf"),
        ("sweep", "--leak-budget", "nan"),
        ("sweep", "--leak-budget", "inf"),
        ("wigner", "--grid", "0:inf:5"),
        ("wigner", "--grid", "-inf:0:5"),
        ("wigner", "--grid", "nan:1:5"),
        # a circuit file fixes its own input, elements and detectors
        ("run", str(FIG1_QOC), "--alpha", "1"),
        ("run", str(FIG1_QOC), "--T", "0.5"),
        ("run", str(FIG1_QOC), "--T", "0.99"),
        ("run", str(FIG1_QOC), "--s", "0.2"),
        ("run", str(FIG1_QOC), "--eta-pd0", "0.8"),
        ("run", str(FIG1_QOC), "--eta-pd1", "0.2"),
        ("run", str(FIG1_QOC), "--eta-pd2", "0.2"),
        ("run", str(FIG1_QOC), "--onoff"),
    ],
    ids=["missing-file", "conflicting-inputs", "malformed-T", "T-out-of-range",
         "eta-out-of-range", "sweep-malformed-alpha", "sweep-T-out-of-range",
         "verify-malformed-alphas", "verify-nan-alphas", "verify-overflowing-alphas",
         "verify-T-out-of-range", "cutoff-1", "negative-nbar",
         "negative-fock", "zero-leak-budget", "qoc-cutoff-1", "sweep-cutoff-1",
         "sweep-negative-leak-budget", "verify-cutoff-1", "verify-zero-leak-budget",
         "nan-alpha", "nan-s", "inf-s", "inf-nbar", "sweep-nan-alpha", "inf-leak-budget",
         "qoc-nan-leak-budget", "qoc-inf-leak-budget", "sweep-nan-leak-budget",
         "sweep-inf-leak-budget", "wigner-inf-grid", "wigner-minus-inf-grid",
         "wigner-nan-grid", "qoc-alpha", "qoc-T", "qoc-T-at-default", "qoc-s", "qoc-eta-pd0",
         "qoc-eta-pd1", "qoc-eta-pd2", "qoc-onoff"],
)
def test_usage_errors_exit_1(tmp_path, args):
    res = _run(*args, "--out", str(tmp_path))
    assert res.exit_code == EXIT_USAGE, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output.lower()


def test_fock_level_at_or_above_an_explicit_cutoff_exits_1(tmp_path):
    circuit = tmp_path / "fock.qoc"
    circuit.write_text(FIG1_QOC.read_text().replace("input a coherent 1.0 0.0", "input a fock 20"))
    for target in (("fig1", "--fock", "20"), (str(circuit),)):
        for cutoff in ("8", "20"):
            res = _run("run", *target, "--cutoff", cutoff, "--out", str(tmp_path))
            assert res.exit_code == EXIT_USAGE, res.output
            assert isinstance(res.exception, SystemExit)
            assert "error:" in res.output.lower() and f"cutoff {cutoff} is not above" in res.output


def test_fock_literal_too_large_for_a_float_exits_1(tmp_path):
    big = "1" + "0" * 400
    circuit = tmp_path / "fock.qoc"
    circuit.write_text(FIG1_QOC.read_text().replace("input a coherent 1.0 0.0", f"input a fock {big}"))
    for target, message in ((("fig1", "--fock", big), "fock_n is too large for a float"),
                            ((str(circuit),), "[bad-argument] fock level is too large for a float")):
        res = _run("run", *target, "--out", str(tmp_path))
        assert res.exit_code == EXIT_USAGE, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output.lower() and message in res.output


@pytest.mark.parametrize("level", ["511", "512", "513", "600"])
def test_fock_level_above_the_policy_ceiling_exits_2(tmp_path, level):
    circuit = tmp_path / "fock.qoc"
    circuit.write_text(FIG1_QOC.read_text().replace("input a coherent 1.0 0.0", f"input a fock {level}"))
    for target in (("fig1", "--fock", level), (str(circuit),)):
        res = _run("run", *target, "--out", str(tmp_path))
        assert res.exit_code == EXIT_NUMERICAL, res.output
        assert isinstance(res.exception, SystemExit)
        assert "numerical failure: no cutoff up to 512" in res.output


def test_non_finite_circuit_literal_exits_1(tmp_path):
    text = FIG1_QOC.read_text().replace("input a coherent 1.0 0.0", "input a thermal 1e400")
    circuit = tmp_path / "hot.qoc"
    circuit.write_text(text)
    for extra in ((), ("--cutoff", "8")):
        res = _run("run", str(circuit), *extra, "--out", str(tmp_path))
        assert res.exit_code == EXIT_USAGE, res.output
        assert isinstance(res.exception, SystemExit)
        assert "[malformed-number] expected a finite number, got '1e400'" in res.output


def test_leak_failure_at_pinned_cutoff_exits_2(tmp_path):
    res = _run("run", "fig1", "--cutoff", "4", "--out", str(tmp_path))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert "numerical failure" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("verify-commutation", "--cutoff", "4"),
        ("run", "fig1", "--alpha", "25"),
        ("sweep", "--alpha", "25"),
        ("verify-commutation", "--alphas", "25"),
        ("wigner", "--grid", "-1e20:1e20:5"),
    ],
    ids=["verify-leak", "run-ceiling", "sweep-ceiling", "verify-ceiling", "wigner-overflow"],
)
def test_numerical_failures_exit_2_without_a_traceback(tmp_path, args):
    # a leak at a pinned cutoff, no adaptive cutoff up to the policy's ceiling,
    # or a finite grid so wide that W overflows
    res = _run(*args, "--out", str(tmp_path))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert isinstance(res.exception, SystemExit)
    assert "numerical failure:" in res.output


def _circuit(tmp_path, old: str, new: str) -> str:
    """fig1.qoc with the line ``old`` replaced by ``new``, written under ``tmp_path``."""
    text = FIG1_QOC.read_text()
    assert f"{old}\n" in text
    path = tmp_path / "edited.qoc"
    path.write_text(text.replace(f"{old}\n", f"{new}\n"))
    return str(path)


@pytest.mark.parametrize("args", [
    ("--eta-pd1", "0"), ("--eta-pd2", "0"), ("--eta-pd0", "0"), ("--eta-pd0", "0", "--onoff"),
    ("qoc", "herald b noclick onoff", "herald b click eta=0"),
    ("--alpha", "40", "--cutoff", "10"), ("--alpha", "1e154"), ("--alpha", "1e200"),
    ("--alpha", "1e200", "--cutoff", "10"), ("--s", "711"), ("--s", "1e3"),
    ("qoc", "input a coherent 1.0 0.0", "input a coherent 1e200 0.0"),
    ("qoc", "tmsq a d s=0.1", "tmsq a d s=1e3"),
], ids=["eta-pd1", "eta-pd2", "eta-pd0", "eta-pd0-onoff", "qoc-eta0", "alpha40-d10", "alpha1e154",
        "alpha1e200", "alpha1e200-d10", "s711", "s1e3", "qoc-alpha1e200", "qoc-s1e3"])
def test_zero_probability_heralds_and_huge_inputs_exit_2_and_write_no_report(tmp_path, args):
    # a herald that can never fire, a coherent state wholly above its cutoff,
    # or a Gaussian tail past the float range: a typed failure, never NaN
    target = (_circuit(tmp_path, *args[1:]),) if args[0] == "qoc" else ("fig1", *args)
    out = tmp_path / "out"
    res = _run("run", *target, "--out", str(out))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert isinstance(res.exception, SystemExit)
    assert "numerical failure:" in res.output
    assert not list(out.glob("*report*"))


def test_repeated_output_in_a_circuit_file_exits_1(tmp_path):
    circuit = _circuit(tmp_path, "out state a", "out wigner a -2:2:5\nout wigner a -1:1:3")
    res = _run("run", circuit, "--out", str(tmp_path / "out"))
    assert res.exit_code == EXIT_USAGE, res.output
    assert "[duplicate-output]" in res.output and "line 16" in res.output
    assert not (tmp_path / "out" / "wigner_a.json").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 9.61 GiB for an array with shape (195112, 3306)")


@pytest.mark.parametrize(
    "target, args",
    [
        ("run_interferometer", ("run", "fig1")),
        ("execute_plan", ("run", str(FIG1_QOC))),
        ("run_interferometer", ("wigner",)),
        ("run_interferometer", ("sweep", "--alpha", "0.5")),
        ("commutation_report", ("verify-commutation",)),
    ],
    ids=["run-fig1", "run-circuit-file", "wigner", "sweep", "verify-commutation"],
)
def test_out_of_memory_exits_2(tmp_path, monkeypatch, target, args):
    monkeypatch.setattr(cli, target, _out_of_memory)
    res = _run(*args, "--out", str(tmp_path))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert "numerical failure: Unable to allocate" in res.output


def test_import_loads_no_scipy():
    src = str(Path(qocsim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qocsim, qocsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


# Every public run path and CLI command, one after another in one fresh
# interpreter; after each it prints the numpy.ma and scipy modules then loaded.
FRESH_RUN = """
import json, sys
import qocsim, qocsim.cli
from qocsim.scheme import (SchemeParams, branch_wigner, build_fig1_circuit, commutation_report,
                           efficiency_degradation, run_interferometer)
from qocsim.dsl import compile_circuit
from qocsim.engine import execute_plan_brute
from qocsim.phasespace import GridSpec

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma."))

def cli(*args):
    try:
        qocsim.cli.main([*args, "--out", sys.argv[1]])
    except SystemExit as exc:
        assert exc.code in (0, None), (args, exc.code)

seen = {"import": loaded()}
for name, params in [("coherent", SchemeParams(alpha=1.0)),
                     ("thermal", SchemeParams(input_kind="thermal", nbar=0.5)),
                     ("fock", SchemeParams(input_kind="fock", fock_n=1)),
                     ("onoff-pd0", SchemeParams(alpha=0.8, pd0_onoff=True)),
                     ("lossy-pd0", SchemeParams(alpha=0.8, eta_pd0=0.7))]:
    res = run_interferometer(params)
    seen["run_interferometer " + name] = loaded()
branch_wigner(res, "pd1", GridSpec.square(-2.0, 2.0, 9))
seen["branch_wigner"] = loaded()
efficiency_degradation(SchemeParams(alpha=0.8), 0.7)
seen["efficiency_degradation"] = loaded()
commutation_report(SchemeParams(), [0.6])
seen["commutation_report"] = loaded()
spec = build_fig1_circuit(SchemeParams(alpha=0.5), "pd2")
execute_plan_brute(compile_circuit(spec, cutoff=5, leak_budget=1.0))
seen["execute_plan_brute"] = loaded()
cli("run", "fig1")
seen["cli run fig1"] = loaded()
cli("run", sys.argv[2])
seen["cli run file"] = loaded()
cli("wigner", "--alpha", "1", "--grid", "-2:2:9")
seen["cli wigner"] = loaded()
cli("verify-commutation", "--alphas", "0.6")
seen["cli verify-commutation"] = loaded()
cli("sweep", "--alpha", "0.5,1")
seen["cli sweep"] = loaded()
print(json.dumps(seen))
"""


def test_run_paths_never_load_numpy_ma_or_scipy(tmp_path):
    # every CLI command and benchmark worker is a fresh process: a module that
    # its first op imports is paid for in its start-up time and peak memory
    src = str(Path(qocsim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", FRESH_RUN, str(tmp_path), str(FIG1_QOC)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert len(seen) == 15
    assert {step: mods for step, mods in seen.items() if mods} == {}


def test_sweep_output_is_byte_identical_across_runs(tmp_path):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        res = _run("sweep", "--alpha", "0.5,1", "--format", "json", "--out", str(out))
        assert res.exit_code == EXIT_OK, res.output
        outputs.append((out / "sweep.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_a_failing_sweep_point_is_reported_and_the_others_still_run(tmp_path):
    # at η = 0 the PD2 click cannot fire; the η = 1 points still run, and the
    # sweep writes exactly the rows of a sweep over those points alone
    mixed, good = tmp_path / "mixed", tmp_path / "good"
    res = _run("sweep", "--alpha", "0.5,1", "--eta", "0,1", "--out", str(mixed))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.count("numerical failure: ") == 2
    assert _run("sweep", "--alpha", "0.5,1", "--eta", "1", "--out", str(good)).exit_code == EXIT_OK
    assert not (good / "sweep_failures.json").exists()
    for name in ("sweep.json", "sweep.csv"):
        assert (mixed / name).read_bytes() == (good / name).read_bytes()
    message = "herald click on mode 'c' has zero probability"
    assert json.loads((mixed / "sweep_failures.json").read_text()) == [
        {"alpha": a, "T": 0.99, "s": 0.1, "eta": 0.0, "message": message} for a in (0.5, 1.0)]


@pytest.mark.parametrize("flag, commands", [
    *((flag, ("run", "wigner", "sweep", "verify-commutation"))
      for flag in ("--cutoff", "--leak-budget", "--out", "--format")),
    *((flag, ("run", "wigner", "verify-commutation")) for flag in ("--T", "--s")),
])
def test_shared_options_are_declared_alike(flag, commands):
    # type, default, range and help of an option are the same on every command
    infos = [[p.to_info_dict() for p in main.commands[c].params if flag in p.opts]
             for c in commands]
    assert all(info == infos[0] and len(info) == 1 for info in infos), flag


@pytest.mark.parametrize("swap, code", [(False, EXIT_OK), (True, EXIT_USAGE)],
                         ids=["as-built", "swapped-bs3"])
def test_verify_commutation_exit_code(tmp_path, swap, code):
    args = ["verify-commutation", "--alphas", "0.6", "--out", str(tmp_path)]
    res = _run(*args, *(["--swap-bs3-sign"] if swap else []))
    assert res.exit_code == code, res.output


def test_verify_commutation_checks_negativity_at_negative_alpha(tmp_path, monkeypatch):
    # a nonnegative PD1 Wigner minimum at |alpha| > 0.3 fails, whatever alpha's sign
    row = {"alpha": -1.0, "cutoff": 10, "fidelity_pd2_vs_input": 1.0,
           "fidelity_pd2_vs_attenuated": 1.0, "predicted_fidelity": 1.0,
           "p_bc_given_b": 0.5, "p_bc_given_c": 0.5, "pd1_min_wigner": 0.01}
    monkeypatch.setattr(cli, "commutation_report", lambda params, alphas: [row])
    res = _run("verify-commutation", "--alphas=-1", "--out", str(tmp_path))
    assert res.exit_code == EXIT_USAGE, res.output
    failed = [line for line in res.output.splitlines() if "  FAIL  " in line]
    assert len(failed) == 1 and "alpha=-1.0: PD1 branch Wigner negativity" in failed[0]
