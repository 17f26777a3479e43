"""Line-oriented circuit description language (`.qoc`) and its compiler.

Grammar (one statement per line, ``#`` starts a comment)::

    modes <m1> <m2> ...
    input <mode> coherent <re> <im> | thermal <nbar> | fock <n> | vacuum
    bs <m1> <m2> T=<float>
    tmsq <m1> <m2> s=<float>
    herald <mode> click|noclick|exactly <n> [eta=<float>] [onoff]
    out wigner <mode> <min>:<max>:<count>
    out fidelity <mode> input
    out probs
    out state <mode>

Every declared mode needs exactly one input statement, and an output kind
may be requested once per mode (once in all, for ``probs``).  Heralds are
destructive: each herald also traces its mode out, and a heralded
mode may not be referenced afterwards.  Elements and
heralds execute in file order.  The canonical printer orders statements as
modes / inputs / operations / outputs; ``parse(print_circuit(spec)) == spec``.

The compiler (:func:`compile_circuit`) sizes each mode's Fock cutoff from the
spec alone: unless one is given explicitly for every mode, it is the smallest
d at which a Gaussian tail model of the circuit keeps that mode within the
leak budget at every checked stage.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputStmt",
    "ElementStmt",
    "HeraldStmt",
    "OutputStmt",
    "CircuitSpec",
    "ParseIssue",
    "CircuitParseError",
    "parse",
    "print_circuit",
    "CutoffCeilingError",
    "ExecutionPlan",
    "compile_circuit",
]

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class InputStmt:
    mode: str
    kind: str  # coherent | thermal | fock | vacuum
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class ElementStmt:
    kind: str  # bs | tmsq
    modes: tuple[str, str]
    value: float  # T for bs, s for tmsq


@dataclass(frozen=True)
class HeraldStmt:
    mode: str
    requirement: str  # click | noclick | exactly
    count: int | None = None
    eta: float = 1.0
    onoff: bool = False


@dataclass(frozen=True)
class OutputStmt:
    kind: str  # wigner | fidelity | probs | state
    mode: str | None = None
    grid: tuple[float, float, int] | None = None


@dataclass(frozen=True)
class CircuitSpec:
    modes: tuple[str, ...]
    inputs: tuple[InputStmt, ...]  # normalized to declared-mode order
    operations: tuple[ElementStmt | HeraldStmt, ...]  # file order
    outputs: tuple[OutputStmt, ...]


# herald sequences that fork from a circuit's final state, one per branch
Branches = tuple[tuple[HeraldStmt, ...], ...]


@dataclass(frozen=True)
class ParseIssue:
    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: [{self.code}] {self.message}"


class CircuitParseError(ValueError):
    """Raised with the full list of parse/validation issues."""

    def __init__(self, issues: list[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class _Collector:
    def __init__(self) -> None:
        self.issues: list[ParseIssue] = []

    def add(self, line: int, column: int, code: str, message: str) -> None:
        self.issues.append(ParseIssue(line, column, code, message))


def _tokenize(text: str) -> list[list[tuple[str, int, int]]]:
    """Per line: list of (token, line_no, column); comments stripped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(0), ln, m.start() + 1) for m in re.finditer(r"\S+", body)]
        if toks:
            out.append(toks)
    return out


def _parse_float(tok: str, ln: int, col: int, errs: _Collector) -> float | None:
    value = float(tok) if _NUMBER_RE.match(tok) else math.nan  # 1e400 overflows to inf
    if not math.isfinite(value):
        errs.add(ln, col, "malformed-number", f"expected a finite number, got {tok!r}")
        return None
    return value


def _parse_int(tok: str, ln: int, col: int, errs: _Collector) -> int | None:
    if not _INT_RE.match(tok):
        errs.add(ln, col, "malformed-number", f"expected an integer, got {tok!r}")
        return None
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        errs.add(ln, col, "malformed-number", f"integer of {len(tok)} digits is too long")
        return None


def parse(text: str) -> CircuitSpec:
    """Parse and validate circuit text; raises :class:`CircuitParseError` on issues."""
    errs = _Collector()
    lines = _tokenize(text)

    modes: tuple[str, ...] = ()
    modes_seen = False
    inputs: dict[str, InputStmt] = {}
    input_lines: dict[str, int] = {}
    operations: list[ElementStmt | HeraldStmt] = []
    outputs: list[OutputStmt] = []
    heralded: set[str] = set()

    def check_mode(tok: str, ln: int, col: int) -> bool:
        if tok not in modes:
            errs.add(ln, col, "undeclared-mode", f"mode {tok!r} is not declared")
            return False
        if tok in heralded:
            errs.add(ln, col, "mode-after-herald", f"mode {tok!r} was heralded and traced")
            return False
        return True

    for toks in lines:
        kw, ln, col = toks[0]
        rest = toks[1:]
        if kw == "modes":
            if modes_seen:
                errs.add(ln, col, "duplicate-modes-line", "only one modes line is allowed")
                continue
            modes_seen = True
            if not rest:
                errs.add(ln, col, "no-modes-declared", "modes line declares no modes")
                continue
            seen: list[str] = []
            for tok, l2, c2 in rest:
                if tok in seen:
                    errs.add(l2, c2, "duplicate-mode", f"mode {tok!r} declared twice")
                else:
                    seen.append(tok)
            modes = tuple(seen)
        elif kw == "input":
            if len(rest) < 2:
                errs.add(ln, col, "bad-argument", "input needs a mode and a kind")
                continue
            (mtok, l2, c2), (ktok, l3, c3) = rest[0], rest[1]
            if mtok not in modes:
                errs.add(l2, c2, "undeclared-mode", f"mode {mtok!r} is not declared")
                continue
            if mtok in inputs:
                errs.add(l2, c2, "duplicate-input", f"mode {mtok!r} already has an input")
                continue
            args = rest[2:]
            stmt: InputStmt | None = None
            if ktok == "coherent":
                if len(args) != 2:
                    errs.add(l3, c3, "bad-argument", "coherent takes <re> <im>")
                else:
                    re_v = _parse_float(*args[0], errs)
                    im_v = _parse_float(*args[1], errs)
                    if re_v is not None and im_v is not None:
                        stmt = InputStmt(mtok, "coherent", (re_v, im_v))
            elif ktok == "thermal":
                if len(args) != 1:
                    errs.add(l3, c3, "bad-argument", "thermal takes <nbar>")
                else:
                    nb = _parse_float(*args[0], errs)
                    if nb is not None:
                        if nb < 0:
                            errs.add(args[0][1], args[0][2], "bad-argument", "nbar must be >= 0")
                        else:
                            stmt = InputStmt(mtok, "thermal", (nb,))
            elif ktok == "fock":
                if len(args) != 1:
                    errs.add(l3, c3, "bad-argument", "fock takes <n>")
                else:
                    n = _parse_int(*args[0], errs)
                    if n is not None:
                        if n < 0:
                            errs.add(args[0][1], args[0][2], "bad-argument", "fock level must be >= 0")
                        elif n > sys.float_info.max:
                            errs.add(args[0][1], args[0][2], "bad-argument",
                                     "fock level is too large for a float")
                        else:
                            stmt = InputStmt(mtok, "fock", (float(n),))
            elif ktok == "vacuum":
                if args:
                    errs.add(l3, c3, "bad-argument", "vacuum takes no arguments")
                else:
                    stmt = InputStmt(mtok, "vacuum", ())
            else:
                errs.add(l3, c3, "unknown-keyword", f"unknown input kind {ktok!r}")
            if stmt is not None:
                inputs[mtok] = stmt
                input_lines[mtok] = ln
        elif kw in ("bs", "tmsq"):
            pname = "T" if kw == "bs" else "s"
            if len(rest) != 3:
                errs.add(ln, col, "bad-argument", f"{kw} takes <m1> <m2> {pname}=<float>")
                continue
            (m1, l1, c1), (m2, l2, c2), (ptok, lp, cp) = rest
            ok = check_mode(m1, l1, c1) & check_mode(m2, l2, c2)
            if m1 == m2:
                errs.add(l2, c2, "modes-must-differ", f"{kw} modes must differ")
                ok = False
            if not ptok.startswith(pname + "="):
                errs.add(lp, cp, "bad-argument", f"expected {pname}=<float>, got {ptok!r}")
                continue
            val = _parse_float(ptok[len(pname) + 1 :], lp, cp + len(pname) + 1, errs)
            if val is None or not ok:
                continue
            if kw == "bs" and not 0.0 < val <= 1.0:
                errs.add(lp, cp, "bad-argument", "T must be in (0, 1]")
                continue
            if kw == "tmsq" and val < 0.0:
                errs.add(lp, cp, "bad-argument", "s must be >= 0")
                continue
            operations.append(ElementStmt(kw, (m1, m2), val))
        elif kw == "herald":
            if len(rest) < 2:
                errs.add(ln, col, "bad-argument", "herald takes <mode> <requirement>")
                continue
            (mtok, l1, c1), (rtok, l2, c2) = rest[0], rest[1]
            args = rest[2:]
            count = None
            if rtok == "exactly":
                if not args:
                    errs.add(l2, c2, "bad-argument", "exactly takes <n>")
                    continue
                count = _parse_int(*args[0], errs)
                args = args[1:]
                if count is None:
                    continue
                if count < 0:
                    errs.add(l2, c2, "bad-argument", "exactly count must be >= 0")
                    continue
            elif rtok not in ("click", "noclick"):
                errs.add(l2, c2, "unknown-keyword", f"unknown herald requirement {rtok!r}")
                continue
            eta = 1.0
            onoff = False
            bad = False
            for tok, lt, ct in args:
                if tok == "onoff":
                    onoff = True
                elif tok.startswith("eta="):
                    ev = _parse_float(tok[4:], lt, ct + 4, errs)
                    if ev is None:
                        bad = True
                    elif not 0.0 <= ev <= 1.0:
                        errs.add(lt, ct, "bad-argument", "eta must be in [0, 1]")
                        bad = True
                    else:
                        eta = ev
                else:
                    errs.add(lt, ct, "bad-argument", f"unexpected herald option {tok!r}")
                    bad = True
            if onoff and rtok == "exactly":
                errs.add(l2, c2, "bad-argument", "an on-off detector cannot resolve exact counts")
                bad = True
            if not check_mode(mtok, l1, c1) or bad:
                continue
            heralded.add(mtok)
            operations.append(HeraldStmt(mtok, rtok, count, eta, onoff))
        elif kw == "out":
            if not rest:
                errs.add(ln, col, "bad-argument", "out takes a request kind")
                continue
            (otok, l1, c1) = rest[0]
            args = rest[1:]
            if otok == "probs":
                if args:
                    errs.add(l1, c1, "bad-argument", "out probs takes no arguments")
                    continue
                out = OutputStmt("probs")
            elif otok in ("wigner", "fidelity", "state"):
                if not args:
                    errs.add(l1, c1, "bad-argument", f"out {otok} takes a mode")
                    continue
                mtok, l2, c2 = args[0]
                if mtok not in modes:
                    errs.add(l2, c2, "undeclared-mode", f"mode {mtok!r} is not declared")
                    continue
                if otok == "wigner":
                    if len(args) != 2:
                        errs.add(l1, c1, "bad-argument", "out wigner takes <mode> <min>:<max>:<count>")
                        continue
                    gtok, lg, cg = args[1]
                    parts = gtok.split(":")
                    if len(parts) != 3:
                        errs.add(lg, cg, "bad-argument", f"expected <min>:<max>:<count>, got {gtok!r}")
                        continue
                    lo = _parse_float(parts[0], lg, cg, errs)
                    hi = _parse_float(parts[1], lg, cg + len(parts[0]) + 1, errs)
                    cnt = _parse_int(parts[2], lg, cg + len(parts[0]) + len(parts[1]) + 2, errs)
                    if lo is None or hi is None or cnt is None:
                        continue
                    if cnt < 2 or not hi > lo:
                        errs.add(lg, cg, "bad-argument", "grid needs min < max and count >= 2")
                        continue
                    out = OutputStmt("wigner", mtok, (lo, hi, cnt))
                elif otok == "fidelity":
                    if len(args) != 2 or args[1][0] != "input":
                        errs.add(l1, c1, "bad-argument", "out fidelity takes <mode> input")
                        continue
                    out = OutputStmt("fidelity", mtok)
                else:
                    if len(args) != 1:
                        errs.add(l1, c1, "bad-argument", "out state takes <mode>")
                        continue
                    out = OutputStmt("state", mtok)
            else:
                errs.add(l1, c1, "unknown-keyword", f"unknown output request {otok!r}")
                continue
            if any((o.kind, o.mode) == (out.kind, out.mode) for o in outputs):  # same artifact
                errs.add(ln, col, "duplicate-output", f"repeats an earlier out {otok} request")
            else:
                outputs.append(out)
        else:
            errs.add(ln, col, "unknown-keyword", f"unknown keyword {kw!r}")

    if not modes:
        errs.add(1, 1, "no-modes-declared", "no modes declared")
    for m in modes:
        if m not in inputs:
            errs.add(1, 1, "missing-input", f"mode {m!r} has no input statement")
    for out in outputs:
        if out.mode is not None and out.mode in heralded:
            errs.add(
                1, 1, "mode-after-herald",
                f"output requests mode {out.mode!r}, which was heralded and traced",
            )
    if not outputs:
        errs.add(1, 1, "no-outputs", "at least one output request is required")

    if errs.issues:
        raise CircuitParseError(errs.issues)

    ordered_inputs = tuple(inputs[m] for m in modes)
    return CircuitSpec(modes, ordered_inputs, tuple(operations), tuple(outputs))


def _fmt(x: float) -> str:
    return repr(float(x))


def print_circuit(spec: CircuitSpec) -> str:
    """Canonical text form; comments are not preserved."""
    lines = ["modes " + " ".join(spec.modes)]
    for inp in spec.inputs:
        if inp.kind == "coherent":
            lines.append(f"input {inp.mode} coherent {_fmt(inp.params[0])} {_fmt(inp.params[1])}")
        elif inp.kind == "thermal":
            lines.append(f"input {inp.mode} thermal {_fmt(inp.params[0])}")
        elif inp.kind == "fock":
            lines.append(f"input {inp.mode} fock {int(inp.params[0])}")
        else:
            lines.append(f"input {inp.mode} vacuum")
    for op in spec.operations:
        if isinstance(op, ElementStmt):
            pname = "T" if op.kind == "bs" else "s"
            lines.append(f"{op.kind} {op.modes[0]} {op.modes[1]} {pname}={_fmt(op.value)}")
        else:
            parts = [f"herald {op.mode} {op.requirement}"]
            if op.requirement == "exactly":
                parts.append(str(op.count))
            if op.eta != 1.0:
                parts.append(f"eta={_fmt(op.eta)}")
            if op.onoff:
                parts.append("onoff")
            lines.append(" ".join(parts))
    for out in spec.outputs:
        if out.kind == "probs":
            lines.append("out probs")
        elif out.kind == "wigner":
            lo, hi, cnt = out.grid
            lines.append(f"out wigner {out.mode} {_fmt(lo)}:{_fmt(hi)}:{cnt}")
        elif out.kind == "fidelity":
            lines.append(f"out fidelity {out.mode} input")
        else:
            lines.append(f"out state {out.mode}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compilation


# The largest cutoff the tail model will size; a circuit whose predicted tail
# has not met the budget by then needs an explicit cutoff.
_MAX_CUTOFF = 512
_LEVELS = np.arange(_MAX_CUTOFF + 1)
_LOG2E = 1.0 / math.log(2.0)
_EYE2 = np.eye(2)
# A click on a squeezer's idler counts every photon number n >= 1 whose
# weight against n = 1 (see _click_counts) is at least this fraction of the
# leak budget.
_CLICK_FLOOR = 1e-3


def _element_symplectic(op: ElementStmt, index: dict[str, int], size: int) -> np.ndarray:
    """The element's map on the quadratures x = a + a†, p = −i(a − a†).

    Conventions as in :mod:`qocsim.elements`: the beam splitter sends
    ⟨a1⟩ → t⟨a1⟩ − r⟨a2⟩ and ⟨a2⟩ → r⟨a1⟩ + t⟨a2⟩, the squeezer
    ⟨a⟩ → μ⟨a⟩ − ν⟨d†⟩.
    """
    s = np.eye(size)
    i, j = (2 * index[m] for m in op.modes)
    if op.kind == "bs":
        t, r = math.sqrt(op.value), math.sqrt(1.0 - op.value)
        for q in (0, 1):
            s[i + q, i + q] = s[j + q, j + q] = t
            s[i + q, j + q], s[j + q, i + q] = -r, r
    else:
        mu, nu = math.cosh(op.value), math.sinh(op.value)
        s[i, i] = s[i + 1, i + 1] = s[j, j] = s[j + 1, j + 1] = mu
        s[i, j] = s[j, i] = -nu
        s[i + 1, j + 1] = s[j + 1, i + 1] = nu
    return s


def _displaced_thermal(cov: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, q) of the displaced thermal laws for the marginals ``cov[..., 2, 2]``, ``mean[..., 2]``.

    Each law has its marginal's |β|² and larger quadrature variance, 2n + 1;
    X = |β|²/(n + 1) and q = n/(n + 1).
    """
    a, b, c = cov[..., 0, 0], cov[..., 1, 1], cov[..., 0, 1]
    nth = np.maximum(0.0, 0.5 * (0.5 * (a + b + np.hypot(a - b, 2.0 * c)) - 1.0))
    return 0.25 * (mean[..., 0] ** 2 + mean[..., 1] ** 2) / (nth + 1.0), nth / (nth + 1.0)


def _click_counts(vb: np.ndarray, mb: np.ndarray, j: int, floor: float) -> dict[int, float]:
    """ln P(n)/P(1) for every idler count n >= 1 that a click may stand for.

    P(n) is the displaced thermal law of the idler behind its detector
    (covariance ``vb``, mean ``mb``), times the factor C(j+n, n) by which j
    photons already created on the signal stimulate n more.  The counts run
    until that weight has fallen below ``floor`` and is still falling.
    """
    x, q = map(float, _displaced_thermal(vb, mb))
    law = [0.0, 1.0]  # law[n + 1] = P(n) / P(0), rescaled by e^{-shift}
    shift = 0.0
    counts: dict[int, float] = {}
    for n in range(1, _MAX_CUTOFF):
        law.append(((q * (2 * n - 1) + (1 - q) * x) * law[-1] - (n - 1) * q * q * law[-2]) / n)
        if law[-1] > 1e150:  # only ratios matter: keep the running terms finite
            law[-2:] = [v * 1e-150 for v in law[-2:]]
            shift += 150.0 * math.log(10.0)
        if law[-1] <= 0.0:
            break
        w = math.log(law[-1]) + shift + math.lgamma(j + n + 1) - math.lgamma(n + 1)
        if n == 1:
            w1 = w
        counts[n] = w - w1
        if counts[n] < math.log(floor) and counts[n] < counts.get(n - 1, math.inf):
            break
    return counts or {1: 0.0}


def _tail_model(spec: CircuitSpec, floor: float, branches: Branches) -> tuple:
    """Tail parameters of every live mode after every leak-checked stage.

    Up to its heralds the circuit is Gaussian, so each mode's marginal is
    tracked exactly by a covariance matrix (vacuum = 1) and a mean; its tail is
    taken as that of the displaced thermal state with the same |β|² and the
    larger quadrature variance.  A herald conditions the Gaussian on vacuum
    behind its efficiency η, which is exact for ``noclick``, and counts the
    photons it detects: each is a ladder operator, worth one factor of the top
    level n in population.  A photon detected on a squeezer's idler is a
    creation on the signal and shifts the tail up one level; a photon tapped
    off by a beam splitter is an annihilation, and one of each leaves the
    tail in place (the identity branch of Fig. 1).  A ``click`` taps off one
    photon, but on a squeezer's idler it may have created any number n >= 1,
    each count weighted by the idler's own photon law and the signal's
    stimulated emission, down to a weight of ``floor`` (see
    :func:`_click_counts`).  The counts are applied to every live mode.

    Two effects of the truncation itself are added.  A truncated squeezer
    cannot carry population past the top level, so until a herald the top
    holds the exact marginal's whole tail; and it cannot deplete its top levels
    by μ⁻²ⁿ as the exact heralded state is, so each squeezer raises a heralded
    tail by cosh²(s) per level.  A tap's photon subtraction interferes with the
    other branch only to first order in its reflectivity, which raises a
    heralded branch's top level relative to its weight; each beam splitter
    that taps a mode still in its vacuum input tightens the budget by T².

    After the spec's last operation the walk forks into each herald sequence
    of ``branches``, as the executor does.  Heralds change neither the boost
    nor the budget factor, so the branches share both.  A herald subtracts
    the Schur complement of its 2×2 block (inverted in closed form) from the
    covariance of all declared modes, and (X, q) of every stage and mode comes
    from one vectorised pass over the stacked stages.

    Returns ``(rows, starts, modes, factor)``: per checked stage and live mode
    in ``modes``, the rows from ``starts`` on, one ``(X, q, k, j, g, w)`` per
    photon count (X = |β|²/(n+1), q = n/(n+1), k ladder operators, j net
    creations, g = ln boost per level, w = ln weight).  The stage's leak on the
    mode is the weighted sum over its rows, held within budget × ``factor``.
    """
    index = {m: i for i, m in enumerate(spec.modes)}
    cov = np.eye(2 * len(index))
    mean = np.zeros(2 * len(index))
    vacuum = {inp.mode for inp in spec.inputs if inp.kind == "vacuum"}
    counts = {(0, 0): 0.0}  # (creations, annihilations) -> ln relative weight
    boost = 0.0
    factor = 1.0
    last: dict[str, str] = {}
    for inp in spec.inputs:
        i = 2 * index[inp.mode]
        if inp.kind == "coherent":
            mean[i : i + 2] = 2.0 * inp.params[0], 2.0 * inp.params[1]
        elif inp.kind == "thermal":
            cov[i : i + 2, i : i + 2] *= 2.0 * inp.params[0] + 1.0
        elif inp.kind == "fock":
            counts = {(c + int(inp.params[0]), a): w for (c, a), w in counts.items()}
    covs, means, stages = [], [], []  # stages: (live modes, counts, ln boost)

    def record(live: tuple[str, ...], cov: np.ndarray, mean: np.ndarray, counts: dict) -> None:
        covs.append(cov)
        means.append(mean)
        stages.append((live, counts, boost))

    def condition(op: HeraldStmt, live: tuple[str, ...], cov: np.ndarray, mean: np.ndarray,
                  counts: dict) -> tuple:
        hb = slice(2 * index[op.mode], 2 * index[op.mode] + 2)
        block, centre, e = cov[hb, hb], mean[hb], op.eta
        (p, r), (t, u) = block.tolist()
        p, r, t, u = e * p + 2.0 - e, e * r, e * t, e * u + 2.0 - e  # η·block + (1 − η) + 1
        f = e / (p * u - r * t)
        gain = cov[:, hb] @ np.array([[u * f, -r * f], [-t * f, p * f]])
        mean = mean - gain @ centre
        cov = cov - gain @ cov[hb, :]
        create = last.get(op.mode) == "tmsq"
        # a stage's leak is a sum over its counts, so merged counts add
        new_counts: dict[tuple[int, int], float] = {}
        for (c, a), w in counts.items():
            if op.requirement == "exactly":
                detected = {op.count: 0.0}
            elif op.requirement == "noclick":
                detected = {0: 0.0}
            elif create:
                vb = e * block + (1.0 - e) * _EYE2
                detected = _click_counts(vb, math.sqrt(e) * centre, max(0, c - a), floor)
            else:
                detected = {1: 0.0}
            for n, wn in detected.items():
                key = (c + n, a) if create else (c, a + n)
                new_counts[key] = w + wn if key not in new_counts else float(
                    np.logaddexp(new_counts[key], w + wn))
        return tuple(m for m in live if m != op.mode), cov, mean, new_counts

    live = spec.modes
    record(live, cov, mean, counts)
    for op in spec.operations:
        if isinstance(op, ElementStmt):
            s = _element_symplectic(op, index, cov.shape[0])
            cov, mean = s @ cov @ s.T, s @ mean
            if op.kind == "tmsq":
                boost += 2.0 * math.log(math.cosh(op.value))
            elif any(m in vacuum and m not in last for m in op.modes):
                factor *= op.value**2
            for m in op.modes:
                last[m] = op.kind
        else:
            live, cov, mean, counts = condition(op, live, cov, mean, counts)
        record(live, cov, mean, counts)
    for tail in branches:
        walk = (live, cov, mean, counts)
        for op in tail:
            walk = condition(op, *walk)
            record(*walk)
    shape = (len(covs), len(index), 2)
    blocks = np.einsum("siaib->siab", np.array(covs).reshape(shape + shape[1:]))
    x, q = (v.tolist() for v in _displaced_thermal(blocks, np.array(means).reshape(shape)))
    rows, starts, modes = [], [], []
    for xs, qs, (live, counts, g) in zip(x, q, stages):
        starts += range(len(rows), len(rows) + len(live) * len(counts), len(counts))
        modes += live
        rows += [(xs[index[m]], qs[index[m]], c + a, max(0, c - a), g, w)
                 for m in live for (c, a), w in counts.items()]
    return np.array(rows, dtype=float), starts, modes, factor


class CutoffCeilingError(ValueError):
    """No cutoff up to 512 keeps the predicted leak within the budget."""

    def __init__(self) -> None:
        super().__init__(f"no cutoff up to {_MAX_CUTOFF} keeps the predicted leak within the "
                         "budget; pass an explicit cutoff")


def _group_cutoffs(rows: np.ndarray, starts: list[int], limit: float) -> np.ndarray:
    """Each row group's smallest d at which its summed leak is within ``limit``.

    The laws P(n) ∝ qⁿ Lₙ(−(1−q)X/q) of all rows come from the Laguerre
    recurrence (stable here, Poisson at q = 0) as one (levels × rows) array,
    from P(0) = 2^−⌊X log₂e⌋ ≈ e^−X, so no term exceeds 2/(1 − q) and every
    ratio is as from P(0) = 1.  With k ladder operators and j net creations
    level n holds nᵏ⁻ʲ·n!/(n−j)!·P(n−j), against the weight of the kept levels
    (leak 1 while that is 0).  After a squeezer (g > 0) an unheralded row holds
    its whole tail at the top, P(n)/(1 − P(n+1)/P(n)), and a heralded one is
    raised by eᵍⁿ.

    The first pass runs j + k + (ln(1/limit) + X)/(1 − q) levels, each of X,
    q, k and j the largest over the rows: a thermal law of mean n falls by a
    factor of at least e^(1−q) = e^(1/(n+1)) per level, X/(1 − q) = |β|² is
    the displacement's mean, and each ladder operator and net creation adds a
    level.  This is an estimate, not a bound: the levels double, up to 512,
    until every group passes, and the cutoffs do not depend on the start.
    """
    x, q, k, j, g, w = rows.T
    xm, qm, km, jm = rows[:, :4].max(axis=0).tolist()
    # a row past the float range passes at no level, and neither does one with
    # j >= 512 net creations: it holds nothing below level j
    if not (np.isfinite(rows).all() and jm < _MAX_CUTOFF):
        raise CutoffCeilingError()
    start = jm + km + (xm - math.log(limit)) / (1.0 - qm) if qm < 1.0 else _MAX_CUTOFF
    levels = min(_MAX_CUTOFF, max(2, math.ceil(start)))
    j = j.astype(int)
    column, spare = np.arange(len(rows)), np.empty(len(rows))
    held_whole = (k == 0) & (g > 0.0)  # then j = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            top = _LEVELS[:levels, None]
            # P(n + 1) = a[n] P(n) − b[n] P(n − 1)
            a, b = (q * (2 * top + 1) + (1 - q) * x) / (top + 1), top / (top + 1) * (q * q)
            pmf = np.zeros((levels + 2, len(rows)))  # pmf[n] = P(n); the last row stays 0
            prev, cur = pmf[-1], pmf[0]
            cur[:] = np.ldexp(1.0, -(x * _LOG2E).astype(int))
            for am, bm, nxt in zip(a, b, pmf[1:-1]):
                np.multiply(am, cur, out=nxt)
                np.multiply(bm, prev, out=spare)
                np.subtract(nxt, spare, out=nxt)
                prev, cur = cur, nxt
            perm = np.maximum(top + 1 - _LEVELS[: int(jm) + 1], 0.0)
            perm[:, 0] = 1.0  # then perm.cumprod(axis=1)[n, j] = n!/(n − j)!
            level = perm.cumprod(axis=1)[:, j] * pmf[np.maximum(top - j, -1), column]
            weight = level.cumsum(axis=0)
            ratio = np.where(level > 0.0, pmf[1 : levels + 1] / level, 0.0)
            held = np.where(held_whole, np.where(ratio < 1.0, level / (1.0 - ratio), np.inf),
                            level * top ** (k - j) * np.exp(np.minimum(g * top, 700.0)))
            leak = np.where(weight > 0.0, held / weight, 1.0) * np.exp(w)
            passed = np.add.reduceat(leak, starts, axis=1)[1:] <= limit
            if passed.any(axis=0).all():
                return passed.argmax(axis=0) + 2
            if levels == _MAX_CUTOFF:
                raise CutoffCeilingError()
            levels = min(2 * levels, _MAX_CUTOFF)


def _charge_signs(spec: CircuitSpec) -> dict[str, int] | None:
    """A sign sₘ per mode such that every element conserves Q = Σ sₘ Nₘ, or None.

    A beam splitter conserves N₁ + N₂ and a two-mode squeezer N₁ − N₂, so
    ``bs`` joins equal signs and ``tmsq`` opposite ones (a union-find with
    signs); heralds are diagonal in the Fock basis and conserve any such Q.
    None when an input is not Fock-diagonal (coherent) or no signing exists,
    as for ``tmsq a b`` followed by ``bs a b``.
    """
    if any(inp.kind == "coherent" for inp in spec.inputs):
        return None
    parent = {m: (m, 1) for m in spec.modes}  # mode -> (parent, sign relative to it)

    def root(mode: str) -> tuple[str, int]:
        sign = 1
        while parent[mode][0] != mode:
            mode, s = parent[mode]
            sign *= s
        return mode, sign

    for op in spec.operations:
        if isinstance(op, ElementStmt):
            relation = 1 if op.kind == "bs" else -1
            (r1, s1), (r2, s2) = root(op.modes[0]), root(op.modes[1])
            if r1 != r2:
                parent[r2] = (r1, relation * s1 * s2)
            elif s1 * s2 != relation:
                return None
    return {m: root(m)[1] for m in spec.modes}


@dataclass(frozen=True)
class ExecutionPlan:
    """A spec and the compiler's decisions about it; the executors walk the spec itself."""

    spec: CircuitSpec
    cutoffs: dict[str, int]  # levels kept on each mode, in declared-mode order
    leak_budget: float
    may_double: bool
    branches: Branches = ()  # each run after the spec's operations, from the state they leave
    # sₘ per mode, every element conserving Q = Σ sₘ Nₘ (see _charge_signs);
    # None when an input is not Fock-diagonal or no signing exists.  With signs,
    # the staged executor carries the input's Fock members of distinct charge
    # in one vector.
    charge_signs: dict[str, int] | None = None

    @property
    def cutoff(self) -> int:
        """The largest mode cutoff: the one number reports show."""
        return max(self.cutoffs.values())


def compile_circuit(
    spec: CircuitSpec, *, branches: Branches = (), cutoff: int | None = None,
    leak_budget: float = 1e-6,
) -> ExecutionPlan:
    """Size a validated spec, and the herald sequences that fork from it, for execution.

    The plan is the spec plus each mode's cutoff, the ``branches`` and each
    mode's charge sign (:func:`_charge_signs`), with which the staged executor
    carries Fock-diagonal inputs collapsed by charge; when to attach a mode is
    the executor's business.  Each entry of ``branches`` heralds distinct
    modes that some statement uses and no herald of the spec traces; the
    executor runs it on the spec's final state, and the cutoffs are sized for
    those stages too.  Compilation is deterministic and idempotent.

    An explicit ``cutoff`` holds for every mode and is never doubled: failing
    loudly is the point of pinning one.  Otherwise a tail model of every live
    mode (:func:`_tail_model`) is evaluated from the spec alone, starting at
    the exact input tails (Poisson for coherent, geometric for thermal, a
    point mass for Fock inputs).  Each mode's cutoff is the smallest d at
    which every stage the executor checks, those of the forked ``branches``
    included, keeps that mode's predicted top-level population within
    ``leak_budget``, so a mode that only ever holds a tapped photon or two
    keeps a few levels (:func:`_group_cutoffs`).  A mode that needs more than
    512 levels, or a tail past the float range, raises
    :class:`CutoffCeilingError`.  The executor doubles every mode's cutoff
    once if the prediction still falls short.
    """
    branches = tuple(map(tuple, branches))
    touched: set[str] = set()
    heralded: set[str] = set()
    for op in spec.operations:
        if isinstance(op, ElementStmt):
            touched.update(op.modes)
        else:
            if op.mode not in touched:
                warnings.warn(
                    f"herald on mode {op.mode!r} which no element has touched",
                    stacklevel=2,
                )
            heralded.add(op.mode)
    live = (touched | {out.mode for out in spec.outputs if out.mode is not None}) - heralded
    for tail in branches:
        modes = [op.mode for op in tail]
        if not live.issuperset(modes) or len(set(modes)) < len(modes):
            raise ValueError(f"branch heralds {modes} must each trace a distinct live mode")

    if cutoff is not None:
        if cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if any(i.kind == "fock" and i.params[0] >= cutoff for i in spec.inputs):
            raise ValueError(f"cutoff {cutoff} is not above a fock input's level")
        cutoffs = dict.fromkeys(spec.modes, cutoff)
    else:
        if not leak_budget > 0.0:
            raise ValueError("an adaptive cutoff needs leak_budget > 0")
        try:  # a tail past the float range is a non-finite row, which _group_cutoffs refuses
            with np.errstate(over="ignore", invalid="ignore"):
                rows, starts, modes, factor = _tail_model(spec, _CLICK_FLOOR * leak_budget, branches)
        except OverflowError:  # cosh s past the float range
            raise CutoffCeilingError() from None
        cutoffs = dict.fromkeys(spec.modes, 2)
        for mode, d in zip(modes, _group_cutoffs(rows, starts, leak_budget * factor).tolist()):
            cutoffs[mode] = max(cutoffs[mode], d)
    return ExecutionPlan(spec, cutoffs, leak_budget, cutoff is None, branches,
                         _charge_signs(spec))
