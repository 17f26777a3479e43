"""Exit codes and artifacts of the ``qocsim`` command line."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import numpy as np
import qocsim
from qocsim import cli
from qocsim.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from qocsim.dsl import compile_circuit, parse
from qocsim.engine import execute_plan
from qocsim.phasespace import GridSpec, wigner
from qocsim.scheme import SchemeParams, branch_wigner, run_interferometer
from reference import coherent_state, gaussian_wigner_oracle, output_value

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


def test_an_alphas_list_of_no_number_exits_1_naming_the_empty_range(tmp_path):
    res = _run("verify-commutation", "--alphas", ",", "--out", str(tmp_path))
    assert res.exit_code == EXIT_USAGE, res.output
    assert "empty range for --alphas" in res.output
    assert not any(tmp_path.iterdir())


def test_fock_level_at_or_above_an_explicit_cutoff_exits_1(tmp_path):
    circuit = tmp_path / "fock.qoc"
    circuit.write_text(FIG1_QOC.read_text().replace("input a coherent 1.0 0.0", "input a fock 20"))
    for target in (("fig1", "--fock", "20"), (str(circuit),)):
        for cutoff in ("8", "20"):
            res = _run("run", *target, "--cutoff", cutoff, "--out", str(tmp_path))
            assert res.exit_code == EXIT_USAGE, res.output
            assert isinstance(res.exception, SystemExit)
            assert "error:" in res.output.lower() and f"cutoff {cutoff} is not above" in res.output


def test_an_exactly_herald_at_or_above_an_explicit_cutoff_exits_1(tmp_path):
    circuit = tmp_path / "k5.qoc"
    circuit.write_text(FIG1_QOC.read_text().replace("herald d exactly 1", "herald d exactly 5"))
    res = _run("run", str(circuit), "--out", str(tmp_path / "adaptive"))
    assert res.exit_code == EXIT_OK, res.output
    for cutoff in ("3", "5"):
        res = _run("run", str(circuit), "--cutoff", cutoff, "--out", str(tmp_path / "pinned"))
        assert res.exit_code == EXIT_USAGE, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"error: cutoff {cutoff} is not above an exactly herald's count" in res.output
    assert not (tmp_path / "pinned" / "report.json").exists()


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
        ("wigner", "--grid", "-1.7e308:1.7e308:5"),
    ],
    ids=["verify-leak", "run-ceiling", "sweep-ceiling", "verify-ceiling", "wigner-overflow"],
)
def test_numerical_failures_exit_2_without_a_traceback(tmp_path, args):
    # a leak at a pinned cutoff, no adaptive cutoff up to the policy's ceiling,
    # or finite grid bounds whose spacing overflows
    res = _run(*args, "--out", str(tmp_path))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert isinstance(res.exception, SystemExit)
    assert "numerical failure:" in res.output


def test_a_far_grid_exits_0_with_the_gaussian_tails(tmp_path):
    # every point but the centre lies 5e19 or more from the origin, where the
    # coherent oracle (and every branch) is exactly 0; the centre is the
    # branch's W(0), as a grid near the origin has it up to rounding
    res = _run("wigner", "--grid", "-1e20:1e20:5", "--out", str(tmp_path))
    assert res.exit_code == EXIT_OK, res.output
    near = run_interferometer(SchemeParams())
    for which in ("pd1", "pd2"):
        doc = json.loads((tmp_path / f"wigner_{which}.json").read_text())
        assert doc["re_axis"] == doc["im_axis"] == [-1e20, -5e19, 0.0, 5e19, 1e20]
        centre = branch_wigner(near, which, GridSpec.square(-1.0, 1.0, 3)).values[1, 1]
        for y, row in zip(doc["im_axis"], doc["values"]):
            for x, w in zip(doc["re_axis"], row):
                if x == y == 0.0:
                    assert abs(w - centre) <= 5e-15
                else:
                    assert w == gaussian_wigner_oracle("coherent", 1.0, complex(x, y)) == 0.0


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


def test_a_wigner_output_in_a_circuit_file_writes_the_grid_of_its_state(tmp_path):
    # `out wigner` is evaluated by the engine and written by the CLI: the grid read
    # back equals the Wigner grid of the same run's `out state a`
    text = FIG1_QOC.read_text() + "out wigner a -2:2:5\n"
    path = tmp_path / "fig1_wigner.qoc"
    path.write_text(text)
    res = _run("run", str(path), "--out", str(tmp_path / "out"))
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "out" / "wigner_a.json").read_text())
    state = output_value(execute_plan(compile_circuit(parse(text))), "state", "a")
    grid = wigner(state, GridSpec.square(-2.0, 2.0, 5))
    assert doc["re_axis"] == doc["im_axis"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert np.array_equal(doc["values"], grid.values)


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
                           run_interferometer)
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
commutation_report(SchemeParams(), [0.6])
seen["commutation_report"] = loaded()
spec = build_fig1_circuit(SchemeParams(alpha=0.5))
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
cli("sweep", "--alpha", "0.5,1", "--eta", "0.6,1")
seen["cli sweep --eta"] = loaded()
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


def test_a_loose_leak_budget_runs_fig1_without_a_truncation_warning(tmp_path):
    # at --leak-budget 1e-3 the coherent input and the attenuated reference sit
    # at d=9, which drops 1.1e-6 of their Poisson weight; the leak monitor
    # judges that against the run's budget, so nothing reaches stderr
    src = str(Path(qocsim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-m", "qocsim.cli", "run", "fig1", "--leak-budget", "1e-3",
                          "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stderr == ""
    assert (tmp_path / "fig1_report.json").is_file()


def test_sweep_output_is_byte_identical_across_runs(tmp_path):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        res = _run("sweep", "--alpha", "0.5,1", "--format", "json", "--out", str(out))
        assert res.exit_code == EXIT_OK, res.output
        outputs.append((out / "sweep.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_over_eta_equals_one_run_per_detector_efficiency(tmp_path):
    # the detector-imperfection assessment: each row holds, field for field,
    # run_interferometer with PD1 and PD2 both at that efficiency
    res = _run("sweep", "--alpha", "1", "--eta", "0.6,1", "--format", "json", "--out", str(tmp_path))
    assert res.exit_code == EXIT_OK, res.output
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert len(rows) == 2
    for row, eta in zip(rows, (0.6, 1.0)):
        want = run_interferometer(SchemeParams(alpha=1.0, eta_pd1=eta, eta_pd2=eta))
        assert (row["alpha_re"], row["eta_pd1"], row["eta_pd2"]) == (1.0, eta, eta)
        for f in cli.RESULT_FIELDS:
            assert row[f] == getattr(want, f), (eta, f)


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


def test_a_sweep_whose_every_point_fails_writes_a_header_only_csv(tmp_path):
    # the header is a successful sweep's, and the failures are still listed
    failed, good = tmp_path / "failed", tmp_path / "good"
    res = _run("sweep", "--eta", "0", "--format", "csv", "--out", str(failed))
    assert res.exit_code == EXIT_NUMERICAL, res.output
    assert not (failed / "sweep.json").exists()
    assert (failed / "sweep_failures.json").exists()
    assert _run("sweep", "--format", "csv", "--out", str(good)).exit_code == EXIT_OK
    header = (good / "sweep.csv").read_bytes().splitlines(keepends=True)[0]
    assert (failed / "sweep.csv").read_bytes() == header


def test_grid_serialization_round_trip(tmp_path):
    # the CLI's grid files, read back with csv and json alone
    state = coherent_state(0.8, 14)
    grid = wigner(state, GridSpec.square(-1.5, 1.5, 11))
    cli._write(tmp_path, "w", "both", grid)
    with open(tmp_path / "w.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["re", "im", "W"]
    re, im, w = np.array(rows, dtype=float).T  # row-major: re varies fastest
    shape = grid.values.shape
    assert np.array_equal(re.reshape(shape), np.broadcast_to(grid.re_axis, shape))
    assert np.array_equal(im.reshape(shape), np.broadcast_to(grid.im_axis[:, None], shape))
    assert np.array_equal(w.reshape(shape), grid.values)
    doc = json.loads((tmp_path / "w.json").read_text())
    assert np.array_equal(doc["re_axis"], grid.re_axis)
    assert np.array_equal(doc["im_axis"], grid.im_axis)
    assert np.array_equal(doc["values"], grid.values)


def test_json_round_trip_pure_and_mixed(tmp_path):
    # the CLI's state files, read back with json alone: every state is written
    # as its density matrix, that of a pure state as of a mixed one
    for name, inp in (("pure", "coherent 0.6 0.2"), ("mixed", "thermal 0.3")):
        text = (f"modes a b\ninput a {inp}\ninput b vacuum\nbs a b T=0.8\n"
                "out probs\nout state a\nout state b\n")
        path = tmp_path / f"{name}.qoc"
        path.write_text(text)
        args = ("--cutoff", "3", "--leak-budget", "1", "--out", str(tmp_path / name))
        assert _run("run", str(path), *args).exit_code == EXIT_OK
        result = execute_plan(compile_circuit(parse(text), cutoff=3, leak_budget=1.0))
        for mode in ("a", "b"):
            state = output_value(result, "state", mode)
            doc = json.loads((tmp_path / name / f"state_{mode}.json").read_text())
            assert doc["kind"] == "mixed" and doc["modes"] == [mode] and doc["cutoff"] == 3
            back = np.array([complex(re, im) for re, im in doc["data"]]).reshape(state.shape)
            assert np.array_equal(back, state)


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
