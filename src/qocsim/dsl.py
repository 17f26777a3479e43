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

Every declared mode needs exactly one input statement.  Heralds are
destructive: each conditioning step also traces its mode out, and a heralded
mode may not be referenced afterwards.  Elements and
heralds execute in file order.  The canonical printer orders statements as
modes / inputs / operations / outputs; ``parse(print_circuit(spec)) == spec``.

The compiler sizes the Fock cutoff from the spec alone (:class:`CutoffPolicy`):
unless one is given explicitly, it is the smallest d at which a Gaussian tail
model of the circuit keeps every checked stage within the leak budget.
"""

from __future__ import annotations

import math
import re
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
    "CutoffPolicy",
    "PlanStep",
    "ExecutionPlan",
    "compile_circuit",
]

INPUT_KINDS = ("coherent", "thermal", "fock", "vacuum")
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
    if not _NUMBER_RE.match(tok):
        errs.add(ln, col, "malformed-number", f"expected a number, got {tok!r}")
        return None
    return float(tok)


def _parse_int(tok: str, ln: int, col: int, errs: _Collector) -> int | None:
    if not _INT_RE.match(tok):
        errs.add(ln, col, "malformed-number", f"expected an integer, got {tok!r}")
        return None
    return int(tok)


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
                else:
                    outputs.append(OutputStmt("probs"))
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
                    outputs.append(OutputStmt("wigner", mtok, (lo, hi, cnt)))
                elif otok == "fidelity":
                    if len(args) != 2 or args[1][0] != "input":
                        errs.add(l1, c1, "bad-argument", "out fidelity takes <mode> input")
                        continue
                    outputs.append(OutputStmt("fidelity", mtok))
                else:
                    if len(args) != 1:
                        errs.add(l1, c1, "bad-argument", "out state takes <mode>")
                        continue
                    outputs.append(OutputStmt("state", mtok))
            else:
                errs.add(l1, c1, "unknown-keyword", f"unknown output request {otok!r}")
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
_EYE2 = np.eye(2)
# A click on a squeezer's idler is counted as 1 .. _CLICK_PHOTONS created photons.
_CLICK_PHOTONS = 4


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


def _displaced_thermal(cov: np.ndarray, mean: np.ndarray) -> tuple[float, float]:
    """(X, q) of the displaced thermal law standing for a one-mode marginal.

    It has the marginal's |β|² and its larger quadrature variance, 2n + 1;
    X = |β|²/(n + 1) and q = n/(n + 1).
    """
    var = 0.5 * (cov[0, 0] + cov[1, 1] + math.hypot(cov[0, 0] - cov[1, 1], 2.0 * cov[0, 1]))
    nth = max(0.0, 0.5 * (var - 1.0))
    return 0.25 * float(mean @ mean) / (nth + 1.0), nth / (nth + 1.0)


def _next_level(x: float, q: float, m: int, pm: float, pm1: float) -> float:
    """P(m + 1) of the displaced thermal law from P(m) and P(m − 1), up to a constant.

    P(n) ∝ qⁿ Lₙ(−(1−q)X/q): the three-term Laguerre recurrence, which is
    stable for this argument and reduces to the Poisson law at q = 0.
    """
    return ((q * (2 * m + 1) + (1 - q) * x) * pm - m * q * q * pm1) / (m + 1)


def _tail_model(spec: CircuitSpec) -> tuple[list[tuple], float]:
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
    photon, but on a squeezer's idler it may have created several, each count
    weighted by the idler's own photon law.

    Two effects of the truncation itself are added.  A truncated squeezer
    cannot carry population past the top level, so until a herald the top
    holds the exact marginal's whole tail; and it cannot deplete its top levels
    by μ⁻²ⁿ as the exact heralded state is, so each squeezer raises a heralded
    tail by cosh²(s) per level.  A tap's photon subtraction interferes with the
    other branch only to first order in its reflectivity, which raises a
    heralded branch's top level relative to its weight; each beam splitter
    that taps a mode still in its vacuum input tightens the budget by T².

    Returns rows ``(X, q, k, j, g, w)`` (X = |β|²/(n+1), q = n/(n+1), k ladder
    operators, j net creations, g = ln boost per level, w = ln weight of the
    photon count) and the budget factor.
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
    rows = []

    def record() -> None:
        for i in index.values():
            mode = slice(2 * i, 2 * i + 2)
            x, q = _displaced_thermal(cov[mode, mode], mean[mode])
            for (c, a), w in counts.items():
                rows.append((x, q, c + a, max(0, c - a), boost, w))

    record()
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
            h = index.pop(op.mode)
            hb = slice(2 * h, 2 * h + 2)
            root = math.sqrt(op.eta)
            vb = op.eta * cov[hb, hb] + (1.0 - op.eta) * _EYE2
            mb = root * mean[hb]
            vab = root * np.delete(cov[:, hb], hb, axis=0)
            gain = vab @ np.linalg.inv(vb + _EYE2)
            mean = np.delete(mean, hb) - gain @ mb
            cov = np.delete(np.delete(cov, hb, axis=0), hb, axis=1) - gain @ vab.T
            index = {m: i - (i > h) for m, i in index.items()}
            create = last.get(op.mode) == "tmsq"
            if op.requirement == "exactly":
                detected = {op.count: 0.0}
            elif op.requirement == "noclick":
                detected = {0: 0.0}
            elif create:  # ln P(n)/P(1) for the idler's n = 1 .. _CLICK_PHOTONS
                x, q = _displaced_thermal(vb, mb)
                law = [0.0, 1.0]
                for m in range(_CLICK_PHOTONS):
                    law.append(_next_level(x, q, m, law[-1], law[-2]))
                detected = {n: math.log(law[n + 1] / law[2]) for n in range(1, _CLICK_PHOTONS + 1)
                            if law[2] > 0.0 and law[n + 1] > 0.0} or {1: 0.0}
            else:
                detected = {1: 0.0}
            new_counts: dict[tuple[int, int], float] = {}
            for (c, a), w in counts.items():
                for n, wn in detected.items():
                    key = (c + n, a) if create else (c, a + n)
                    new_counts[key] = max(new_counts.get(key, -math.inf), w + wn)
            counts = new_counts
        record()
    return rows, factor


def _row_cutoff(x: float, q: float, k: int, j: int, g: float, limit: float) -> int:
    """The smallest d at which one row's predicted top-level population is within ``limit``.

    The displaced thermal tail P(n) is run up level by level
    (:func:`_next_level`).  With k ladder operators and j net
    creations the population at level n is nᵏ⁻ʲ·n!/(n−j)!·P(n−j), taken
    against the weight the truncated levels carry.  After a squeezer (g > 0)
    an unheralded row holds its whole tail at the top, P(n)/(1 − P(n+1)/P(n)),
    and a heralded row is raised by eᵍⁿ.
    """
    pmf = [0.0] * (j + 1) + [1.0]  # pmf[n + 1] = P(n − j), up to a constant

    def following(m: int) -> float:
        return _next_level(x, q, m, pmf[-1], pmf[-2])

    weight = 0.0
    for top in range(_MAX_CUTOFF):
        if top > j:
            pmf.append(following(top - j - 1))
            if pmf[-1] > 1e150:  # only ratios matter: keep the running terms finite
                pmf[-2:] = [v * 1e-150 for v in pmf[-2:]]
                weight *= 1e-150
        level = math.perm(top, j) * pmf[top + 1]
        weight += level
        if k == 0 and g > 0.0:  # then j = 0 and following(top) is P(top + 1)
            ratio = following(top) / level if level > 0.0 else 0.0
            held = level / (1.0 - ratio) if ratio < 1.0 else math.inf
        else:
            held = level * top ** (k - j) * math.exp(min(g * top, 700.0))
        if top and weight > 0.0 and held <= limit * weight:
            return top + 1
    raise ValueError(
        f"no cutoff up to {_MAX_CUTOFF} keeps the predicted leak within the budget; "
        "pass an explicit cutoff"
    )


def _budget_cutoff(spec: CircuitSpec, budget: float) -> int:
    """The smallest d at which every modelled stage keeps its top level within budget."""
    rows, factor = _tail_model(spec)
    return max(
        _row_cutoff(x, q, int(k), int(j), g, budget * factor * math.exp(-w))
        for x, q, k, j, g, w in set(rows)
    )


@dataclass(frozen=True)
class CutoffPolicy:
    """Cutoff selection: an explicit value, or the smallest d the leak budget allows.

    Adaptive rule: a tail model of every live mode (:func:`_tail_model`) is
    evaluated from the spec alone, starting at the exact input tails (Poisson
    for coherent, geometric for thermal, a point mass for Fock inputs), and d
    is the smallest cutoff at which every stage the executor checks keeps its
    predicted top-level population within ``leak_budget``.  The executor
    doubles d once if the prediction still falls short (explicit cutoffs are
    never doubled: failing loudly is the point of pinning one).
    """

    explicit: int | None = None
    leak_budget: float = 1e-6

    def choose(self, spec: CircuitSpec) -> tuple[int, bool]:
        """Returns (cutoff, may_double)."""
        if self.explicit is not None:
            if self.explicit < 2:
                raise ValueError("cutoff must be >= 2")
            return self.explicit, False
        if not self.leak_budget > 0.0:
            raise ValueError("an adaptive cutoff needs leak_budget > 0")
        return _budget_cutoff(spec, self.leak_budget), True


@dataclass(frozen=True)
class PlanStep:
    """One primitive step: prepare | unitary | condition | output.

    A condition step heralds its mode and traces it out in one go.
    """

    op: str
    mode: str | None = None
    modes: tuple[str, str] | None = None
    payload: InputStmt | ElementStmt | HeraldStmt | OutputStmt | None = None


@dataclass(frozen=True)
class ExecutionPlan:
    spec: CircuitSpec
    cutoff: int
    leak_budget: float
    may_double: bool
    steps: tuple[PlanStep, ...]


def compile_circuit(spec: CircuitSpec, policy: CutoffPolicy = CutoffPolicy()) -> ExecutionPlan:
    """Lower a validated spec to an ordered step list.

    Modes are prepared lazily right before first use (staged evaluation) and
    every condition step traces its mode out, so the live space stays small.
    Compilation is deterministic and idempotent.
    """
    cutoff, may_double = policy.choose(spec)
    inputs = {inp.mode: inp for inp in spec.inputs}
    steps: list[PlanStep] = []
    live: set[str] = set()
    touched: set[str] = set()

    def ensure(mode: str) -> None:
        if mode not in live:
            steps.append(PlanStep("prepare", mode=mode, payload=inputs[mode]))
            live.add(mode)

    for op in spec.operations:
        if isinstance(op, ElementStmt):
            ensure(op.modes[0])
            ensure(op.modes[1])
            touched.update(op.modes)
            steps.append(PlanStep("unitary", modes=op.modes, payload=op))
        else:
            if op.mode not in touched:
                warnings.warn(
                    f"herald on mode {op.mode!r} which no element has touched",
                    stacklevel=2,
                )
            ensure(op.mode)
            steps.append(PlanStep("condition", mode=op.mode, payload=op))
            live.discard(op.mode)

    for out in spec.outputs:
        if out.mode is not None:
            ensure(out.mode)
    for out in spec.outputs:
        steps.append(PlanStep("output", mode=out.mode, payload=out))

    return ExecutionPlan(spec, cutoff, policy.leak_budget, may_double, tuple(steps))
