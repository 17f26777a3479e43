"""Command-line frontend.

Artifacts go to ``--out`` (default ``QOCSIM_OUT_DIR``, else the working
directory), each ``<name>.*`` as ``.json``, ``.csv`` or both, as ``--format``
says.  ``run fig1`` writes ``fig1_report.*``; ``run <circuit>.qoc`` writes
``report.*``, ``wigner_<mode>.*`` and ``state_<mode>.json``; ``wigner`` writes
``wigner_pd1.*``, ``wigner_pd2.*`` and ``wigner_summary.json``; ``sweep``
writes ``sweep.*``, a row per point that ran, and, if any point failed
numerically, ``sweep_failures.json``; ``verify-commutation`` writes
``verify_commutation.*``.  The three ``.json`` names are JSON whatever
``--format`` says.

Exit codes: 0 success, 1 parse/validation/usage errors or a failed
``verify-commutation`` check, 2 numerical failure (leak budget exceeded, a
zero-probability herald, no adaptive cutoff up to the compiler's ceiling, a
cutoff too large for memory, or a Wigner grid whose values overflow), also
of a single ``sweep`` point.  All artifacts are deterministic: identical
configuration yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from itertools import product
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .core import Cutoff, MixedState, state_to_json_dict, truncated_commutator
from .dsl import CircuitParseError, CutoffCeilingError, compile_circuit, parse
from .elements import _pair_ladders, beam_splitter_unitary, two_mode_squeezer_unitary
from .engine import LeakBudgetError, execute_plan
from .measurement import ZeroProbabilityError
from .phasespace import (GridSpec, NonFiniteWignerError, WignerGrid, min_wigner, save_grid_csv,
                         save_grid_json)
from .scheme import SchemeParams, branch_wigner, commutation_report, run_interferometer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# failures of a valid configuration, reported as "numerical failure" (exit 2);
# MemoryError covers numpy's ArrayMemoryError for a cutoff too large to hold
NUMERICAL_FAILURES = (LeakBudgetError, ZeroProbabilityError, CutoffCeilingError, MemoryError,
                      NonFiniteWignerError)

# tolerances for `verify-commutation`, calibrated against the exact simulation:
# the first-order fidelity formula e^{-(1-t)^2|alpha|^2} neglects an O(s^2)
# attenuation, so it is checked at 5e-3; the identity-vs-sum branch contrast is
# an order-0.3 effect, so 0.995 cleanly separates the two BS3 sign choices.
IDENTITY_FIDELITY_FLOOR = 0.995
FORMULA_TOL = 5e-3
OPERATOR_TOL = 1e-9
HOM_TOL = 1e-10


def _out_dir(out: str | None) -> Path:
    base = out or os.environ.get("QOCSIM_OUT_DIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_json(doc, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write(out_dir: Path, name: str, fmt: str, doc, rows: list[dict] | None = None) -> None:
    """Write ``name``.json and ``name``.csv in ``out_dir``, or the one ``--format`` names.

    The JSON holds ``doc`` and the CSV ``rows`` (none when there are no rows);
    a :class:`WignerGrid` ``doc`` is written whole to both.
    """
    json_path, csv_path = out_dir / f"{name}.json", out_dir / f"{name}.csv"
    grid = isinstance(doc, WignerGrid)
    if fmt in ("json", "both"):
        (save_grid_json if grid else _dump_json)(doc, json_path)
    if fmt in ("csv", "both"):
        if grid:
            save_grid_csv(doc, csv_path)
        elif rows:
            cols = list(rows[0].keys())
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(cols)
                for row in rows:
                    writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                                     for c in cols])


@contextmanager
def _usage_exit_code():
    """Give click's usage errors the documented exit code 1 (click's own is 2)."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_USAGE
        raise


class _Main(click.Group):
    def make_context(self, *args, **kwargs):
        with _usage_exit_code():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        """Run a command, mapping a circuit's parse issues to exit 1 and numerical failures to 2."""
        with _usage_exit_code():
            try:
                return super().invoke(ctx)
            except CircuitParseError as exc:
                for issue in exc.issues:
                    click.echo(f"error: {issue}", err=True)
                sys.exit(EXIT_USAGE)
            except NUMERICAL_FAILURES as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(EXIT_NUMERICAL)


def _validated(**kwargs) -> SchemeParams:
    try:
        return SchemeParams(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _float_list(text: str, name: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise click.UsageError(f"bad number in {name} {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise click.UsageError(f"non-finite number in {name} {text!r}")
    if not vals:
        raise click.UsageError(f"empty range for {name}")
    return vals


def _scheme_params(alpha, nbar, fock, **opts) -> SchemeParams:
    """The fig1 options as ``SchemeParams``: a coherent input unless --nbar or --fock picks one."""
    if sum(x is not None for x in (alpha, nbar, fock)) > 1:
        raise click.UsageError("choose one of --alpha / --nbar / --fock")
    if nbar is not None:
        return _validated(input_kind="thermal", nbar=nbar, **opts)
    if fock is not None:
        return _validated(input_kind="fock", fock_n=fock, **opts)
    if alpha is not None:
        opts["alpha"] = complex(alpha)
    return _validated(**opts)


def _result_report(res) -> dict:
    """The input's fields, then every scalar field of the ``SchemeResult``, in its order."""
    p = res.params
    report = {
        "input_kind": p.input_kind,
        "alpha_re": complex(p.alpha).real,
        "alpha_im": complex(p.alpha).imag,
        "nbar": p.nbar,
        "fock_n": p.fock_n,
        "T": p.transmittivity,
        "s": p.coupling,
        "eta_pd0": p.eta_pd0,
        "eta_pd1": p.eta_pd1,
        "eta_pd2": p.eta_pd2,
    }
    for f in fields(res):
        value = getattr(res, f.name)
        if not isinstance(value, (SchemeParams, MixedState)):
            report[f.name] = value
    return report


class _FiniteRange(click.FloatRange):
    """A float range that also refuses nan and inf (nan compares as inside any range)."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


# Each option is declared once and listed by every command that takes it.  One
# that sets a SchemeParams field is named after it, and click checks the range
# SchemeParams accepts, so that a bad value is a usage error.
T_OPTION = click.Option(["--T", "transmittivity"], type=float, default=SchemeParams.transmittivity,
                        show_default=True, help="tap transmittivity")
S_OPTION = click.Option(["--s", "coupling"], type=float, default=SchemeParams.coupling,
                        show_default=True, help="squeezer coupling")
fig1_options = [
    click.Option(["--alpha"], type=float, help="coherent input amplitude"),
    click.Option(["--nbar"], type=click.FloatRange(min=0), help="thermal input mean photon number"),
    click.Option(["--fock"], type=click.IntRange(min=0), help="Fock input level"),
    T_OPTION,
    S_OPTION,
    *(click.Option([f"--eta-{pd}"], type=float, default=getattr(SchemeParams, f"eta_{pd}"),
                   show_default=True)
      for pd in ("pd0", "pd1", "pd2")),
    click.Option(["--onoff", "pd0_onoff"], is_flag=True,
                 help="use an on-off detector for the PD0 herald"),
]
cutoff_options = [
    click.Option(["--cutoff"], type=click.IntRange(min=2),
                 help="explicit Fock cutoff for every mode, never raised "
                      "(default: predicted per mode from the leak budget)"),
    click.Option(["--leak-budget"], type=_FiniteRange(min=0, min_open=True),
                 default=SchemeParams.leak_budget, show_default=True),
]
output_options = [
    click.Option(["--out"], help="output directory (default $QOCSIM_OUT_DIR or .)"),
    click.Option(["--format", "fmt"], type=click.Choice(["json", "csv", "both"]), default="both",
                 show_default=True),
]


@click.group(cls=_Main)
def main() -> None:
    """Truncated Fock-space simulator for heralded add/subtract interferometry."""


@main.command("run", params=[click.Argument(["circuit"]), *fig1_options, *cutoff_options,
                             *output_options])
def cmd_run(circuit, out, fmt, **opts) -> None:
    """Run the built-in `fig1` scenario or a `.qoc` circuit file."""
    out_dir = _out_dir(out)
    if circuit == "fig1":
        report = _result_report(run_interferometer(_scheme_params(**opts)))
        _write(out_dir, "fig1_report", fmt, report, [report])
        click.echo(f"fig1 report written to {out_dir}")
        return
    path = Path(circuit)
    if not path.exists():
        click.echo(f"error: file not found: {circuit}", err=True)
        sys.exit(EXIT_USAGE)
    # the circuit file fixes its own input, elements and detectors
    ctx = click.get_current_context()
    for opt in fig1_options:
        if ctx.get_parameter_source(opt.name) is not ParameterSource.DEFAULT:
            click.echo(f"error: {opt.opts[0]} applies only to the fig1 scenario", err=True)
            sys.exit(EXIT_USAGE)
    spec = parse(path.read_text())
    try:
        plan = compile_circuit(spec, cutoff=opts["cutoff"], leak_budget=opts["leak_budget"])
    except CutoffCeilingError:
        raise
    except ValueError as exc:  # a Fock input at or above the explicit cutoff
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    _write_circuit_outputs(execute_plan(plan), out_dir, fmt)
    click.echo(f"circuit outputs written to {out_dir}")


def _write_circuit_outputs(result, out_dir: Path, fmt: str) -> None:
    report: dict = {
        "cutoff": result.cutoff,
        "joint_probability": result.joint_probability,
        "leak_max": result.leak_max,
        "heralds": [asdict(h) for h in result.heralds],
    }
    for stmt, value in zip(result.plan.spec.outputs, result.outputs):
        if stmt.kind == "probs":
            report["probs"] = value
        elif stmt.kind == "fidelity":
            report[f"fidelity_{stmt.mode}_vs_input"] = value
        elif stmt.kind == "state":
            _dump_json(state_to_json_dict(value), out_dir / f"state_{stmt.mode}.json")
        elif stmt.kind == "wigner":
            _write(out_dir, f"wigner_{stmt.mode}", fmt, value)
    flat = {k: v for k, v in report.items() if isinstance(v, (int, float, str))}
    _write(out_dir, "report", fmt, report, [flat])


@main.command("verify-commutation", params=[
    click.Option(["--alphas"], default="0,0.6,1,1.4", show_default=True,
                 help="comma-separated coherent amplitudes"),
    T_OPTION,
    S_OPTION,
    *cutoff_options,
    click.Option(["--swap-bs3-sign"], is_flag=True,
                 help="flip the BS3 sign convention (sanity check: identity moves to PD1)"),
    *output_options,
])
def cmd_verify_commutation(alphas, out, fmt, **opts) -> None:
    """Operator-level identity checks plus a coherent-amplitude sweep."""
    base = _validated(**opts)
    T, s = base.transmittivity, base.coupling
    alpha_list = _float_list(alphas, "--alphas")
    out_dir = _out_dir(out)
    checks: list[tuple[str, bool, str]] = []

    # truncated-commutator structure across cutoffs
    worst = 0.0
    for d in range(2, 65):
        comm = truncated_commutator(Cutoff(d))
        expect = np.diag(np.concatenate([np.ones(d - 1), [-(d - 1.0)]]))
        worst = max(worst, float(np.max(np.abs(comm - expect))))
    checks.append(("commutator diag(1,...,1,-(d-1)) for d=2..64", worst <= 1e-12, f"max dev {worst:.2e}"))

    d = 20
    cut = Cutoff(d)
    t, r = math.sqrt(T), math.sqrt(1 - T)
    bs = beam_splitter_unitary(T, cut)
    a1, a2 = _pair_ladders(cut)
    tot = np.add.outer(np.arange(d), np.arange(d)).ravel()
    blk = tot <= d - 2
    dev = max(
        _block_dev(bs @ a1 @ bs.conj().T, t * a1 + r * a2, blk),
        _block_dev(bs @ a2 @ bs.conj().T, t * a2 - r * a1, blk),
    )
    checks.append(("beam-splitter conjugation (both signs)", dev <= OPERATOR_TOL, f"max dev {dev:.2e}"))

    sq = two_mode_squeezer_unitary(s, cut)
    blk_sq = tot <= d - 9  # 8-level margin under the truncation boundary
    dev = _block_dev(sq @ a1 @ sq.conj().T, math.cosh(s) * a1 + math.sinh(s) * a2.conj().T, blk_sq)
    checks.append(("squeezer conjugation S a S† = μa + νd†", dev <= OPERATOR_TOL, f"max dev {dev:.2e}"))

    hom = beam_splitter_unitary(0.5, Cutoff(4))
    v11 = np.zeros(16, dtype=complex)
    v11[1 + 4 * 1] = 1.0
    outv = hom @ v11
    amp20, amp02, amp11 = outv[2], outv[2 * 4], outv[1 + 4]
    hom_ok = (
        abs(amp11) <= HOM_TOL
        and abs(abs(amp20) - 1 / math.sqrt(2)) <= HOM_TOL
        and abs(amp20 + amp02) <= HOM_TOL
    )
    checks.append(("Hong-Ou-Mandel bunching at 50:50", hom_ok,
                   f"|amp(1,1)| = {abs(amp11):.2e}"))

    rows = commutation_report(base, alpha_list)
    for row in rows:
        a = row["alpha"]
        ok_identity = row["fidelity_pd2_vs_input"] >= IDENTITY_FIDELITY_FLOOR
        ok_formula = abs(row["fidelity_pd2_vs_input"] - row["predicted_fidelity"]) <= FORMULA_TOL
        ok_wigner = (row["pd1_min_wigner"] < 0) if abs(a) > 0.3 else True
        checks.append((f"alpha={a}: PD2 branch is the identity", ok_identity,
                       f"F={row['fidelity_pd2_vs_input']:.6f}"))
        checks.append((f"alpha={a}: matches exp(-(1-t)^2 a^2) to {FORMULA_TOL}", ok_formula,
                       f"|dF|={abs(row['fidelity_pd2_vs_input'] - row['predicted_fidelity']):.2e}"))
        checks.append((f"alpha={a}: PD1 branch Wigner negativity", ok_wigner,
                       f"minW={row['pd1_min_wigner']:.4f}"))

    all_ok = all(ok for _, ok, _ in checks)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        click.echo(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    doc = {"checks": [{"name": n, "pass": bool(ok), "detail": dt} for n, ok, dt in checks],
           "rows": rows}
    _write(out_dir, "verify_commutation", fmt, doc, rows)
    sys.exit(EXIT_OK if all_ok else EXIT_USAGE)


def _block_dev(lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> float:
    diff = np.abs(lhs - rhs)
    return float(diff[np.ix_(mask, mask)].max())


@main.command("wigner", params=[*fig1_options, *cutoff_options, *output_options])
@click.option("--grid", type=str, default="-3:3:81", show_default=True,
              help="<min>:<max>:<count> square grid")
def cmd_wigner(out, fmt, grid, **opts) -> None:
    """Wigner grids of the PD1-only and PD2-only branches."""
    out_dir = _out_dir(out)
    try:
        lo, hi, cnt = grid.split(":")
        gspec = GridSpec.square(float(lo), float(hi), int(cnt))
    except ValueError:
        click.echo(f"error: bad --grid {grid!r}", err=True)
        sys.exit(EXIT_USAGE)
    res = run_interferometer(_scheme_params(**opts))
    summary = {}
    for which in ("pd1", "pd2"):
        g = branch_wigner(res, which, gspec)
        _write(out_dir, f"wigner_{which}", fmt, g)
        beta, wmin = min_wigner(g)
        summary[which] = {"min_wigner": wmin, "at_re": beta.real, "at_im": beta.imag}
        click.echo(f"{which}: min W = {wmin:.6f} at beta = {beta:.3f}")
    _dump_json(summary, out_dir / "wigner_summary.json")


@main.command("sweep", params=[
    *(click.Option([f"--{name}", name], default=default, show_default=True,
                   help="comma-separated")
      for name, default in (("alpha", "1.0"), ("T", "0.99"), ("s", "0.1"))),
    click.Option(["--eta"], default="1.0", show_default=True,
                 help="comma-separated PD1/PD2 efficiencies"),
    *cutoff_options,
    *output_options,
])
def cmd_sweep(alpha, T, s, eta, cutoff, leak_budget, out, fmt) -> None:
    """Cartesian sweep over alpha/T/s/eta; one report row per point."""
    out_dir = _out_dir(out)

    alphas = _float_list(alpha, "--alpha")
    Ts = _float_list(T, "--T")
    ss = _float_list(s, "--s")
    etas = _float_list(eta, "--eta")
    points = sorted(product(alphas, Ts, ss, etas))
    params = [
        _validated(alpha=complex(a), transmittivity=tv, coupling=sv, eta_pd1=ev, eta_pd2=ev,
                   cutoff=cutoff, leak_budget=leak_budget)
        for a, tv, sv, ev in points
    ]

    rows, failures = [], []
    for point, p in zip(points, params):
        try:
            rows.append(_result_report(run_interferometer(p)))
        except NUMERICAL_FAILURES as exc:  # reported; the other points still run
            click.echo(f"numerical failure: {exc} at (alpha, T, s, eta) = {point}", err=True)
            failures.append({**dict(zip(("alpha", "T", "s", "eta"), point)), "message": str(exc)})
    _write(out_dir, "sweep", fmt, rows, rows)
    click.echo(f"{len(rows)} sweep rows written to {out_dir}")
    if failures:
        _dump_json(failures, out_dir / "sweep_failures.json")
        sys.exit(EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
