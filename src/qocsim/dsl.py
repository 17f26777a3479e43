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
mode may not be referenced afterwards.  Elements and heralds execute in file
order.

The compiler (:func:`compile_circuit`) sizes each mode's Fock cutoff from the
spec alone: unless one is given explicitly for every mode, it is the smallest
d at which a Gaussian tail model of the circuit keeps that mode within the
leak budget at every checked stage, and a mode heralded ``exactly k`` keeps
k − 1 levels more.  It also checks the parser's mode rules on every spec,
also one built in code: each statement and output names declared modes, none
that a herald has traced, and no mode twice.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

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
    "CutoffCeilingError",
    "ExecutionPlan",
    "compile_circuit",
]

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
# each input kind's and output request's arguments: their count and the usage in its issue
_INPUT_ARGS = {"coherent": "<re> <im>", "thermal": "<nbar>", "fock": "<n>", "vacuum": ""}
_OUTPUT_ARGS = {"probs": "", "wigner": "<mode> <min>:<max>:<count>", "fidelity": "<mode> input",
                "state": "<mode>"}


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


_Token = tuple[str, int, int]  # (text, line, column)


def _tokenize(text: str) -> list[list[_Token]]:
    """Per line: list of (token, line_no, column); comments stripped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(0), ln, m.start() + 1) for m in re.finditer(r"\S+", body)]
        if toks:
            out.append(toks)
    return out


def parse(text: str) -> CircuitSpec:
    """Parse and validate circuit text; raises :class:`CircuitParseError` on issues."""
    issues: list[ParseIssue] = []
    modes: tuple[str, ...] = ()
    modes_seen = False
    inputs: dict[str, InputStmt] = {}
    operations: list[ElementStmt | HeraldStmt] = []
    outputs: list[OutputStmt] = []
    heralded: set[str] = set()

    def bad(tok: _Token, code: str, message: str, skip: int = 0) -> None:
        """Record an issue at ``tok``, ``skip`` columns into it."""
        issues.append(ParseIssue(tok[1], tok[2] + skip, code, message))

    def number(text: str, tok: _Token, skip: int = 0, integer: bool = False) -> float | int | None:
        """``text``, found ``skip`` columns into ``tok``, as a finite float or an int."""
        if integer:
            message = f"expected an integer, got {text!r}"
            if _INT_RE.match(text):
                try:
                    return int(text)
                except ValueError:  # more digits than int() converts
                    message = f"integer of {len(text)} digits is too long"
        else:
            value = float(text) if _NUMBER_RE.match(text) else math.nan  # 1e400 overflows to inf
            if math.isfinite(value):
                return value
            message = f"expected a finite number, got {text!r}"
        bad(tok, "malformed-number", message, skip)
        return None

    def mode(tok: _Token, live: bool = True) -> bool:
        """Whether ``tok`` names a declared mode and, if ``live``, one no herald has traced."""
        if tok[0] not in modes:
            bad(tok, "undeclared-mode", f"mode {tok[0]!r} is not declared")
        elif live and tok[0] in heralded:
            bad(tok, "mode-after-herald", f"mode {tok[0]!r} was heralded and traced")
        else:
            return True
        return False

    for toks in _tokenize(text):
        kw, rest = toks[0][0], toks[1:]
        first = len(issues)  # a statement with issues of its own is dropped
        if kw == "modes":
            if modes_seen:
                bad(toks[0], "duplicate-modes-line", "only one modes line is allowed")
                continue
            modes_seen = True
            if not rest:
                bad(toks[0], "no-modes-declared", "modes line declares no modes")
            for tok in rest:
                if tok[0] in modes:
                    bad(tok, "duplicate-mode", f"mode {tok[0]!r} declared twice")
                else:
                    modes += (tok[0],)
        elif kw == "input":
            if len(rest) < 2:
                bad(toks[0], "bad-argument", "input needs a mode and a kind")
                continue
            mtok, ktok, args = rest[0], rest[1], rest[2:]
            kind = ktok[0]
            if not mode(mtok, live=False):
                continue
            if mtok[0] in inputs:
                bad(mtok, "duplicate-input", f"mode {mtok[0]!r} already has an input")
            elif kind not in _INPUT_ARGS:
                bad(ktok, "unknown-keyword", f"unknown input kind {kind!r}")
            elif len(args) != len(_INPUT_ARGS[kind].split()):
                bad(ktok, "bad-argument", f"{kind} takes {_INPUT_ARGS[kind] or 'no arguments'}")
            else:
                values = [number(tok[0], tok, integer=kind == "fock") for tok in args]
                if len(issues) > first:
                    continue
                if kind == "thermal" and values[0] < 0:
                    bad(args[0], "bad-argument", "nbar must be >= 0")
                elif kind == "fock" and values[0] < 0:
                    bad(args[0], "bad-argument", "fock level must be >= 0")
                elif kind == "fock" and values[0] > sys.float_info.max:
                    bad(args[0], "bad-argument", "fock level is too large for a float")
                else:
                    inputs[mtok[0]] = InputStmt(mtok[0], kind, tuple(map(float, values)))
        elif kw in ("bs", "tmsq"):
            pname = "T" if kw == "bs" else "s"
            if len(rest) != 3:
                bad(toks[0], "bad-argument", f"{kw} takes <m1> <m2> {pname}=<float>")
                continue
            m1, m2, ptok = rest
            mode(m1)
            mode(m2)
            if m1[0] == m2[0]:
                bad(m2, "modes-must-differ", f"{kw} modes must differ")
            if not ptok[0].startswith(pname + "="):
                bad(ptok, "bad-argument", f"expected {pname}=<float>, got {ptok[0]!r}")
                continue
            val = number(ptok[0][2:], ptok, 2)
            if len(issues) > first:
                continue
            if kw == "bs" and not 0.0 < val <= 1.0:
                bad(ptok, "bad-argument", "T must be in (0, 1]")
            elif kw == "tmsq" and val < 0.0:
                bad(ptok, "bad-argument", "s must be >= 0")
            else:
                operations.append(ElementStmt(kw, (m1[0], m2[0]), val))
        elif kw == "herald":
            if len(rest) < 2:
                bad(toks[0], "bad-argument", "herald takes <mode> <requirement>")
                continue
            mtok, rtok, args = rest[0], rest[1], rest[2:]
            count = None
            if rtok[0] == "exactly":
                if not args:
                    bad(rtok, "bad-argument", "exactly takes <n>")
                    continue
                count = number(args[0][0], args[0], integer=True)
                args = args[1:]
                if count is None:
                    continue
                if count < 0:
                    bad(rtok, "bad-argument", "exactly count must be >= 0")
                    continue
            elif rtok[0] not in ("click", "noclick"):
                bad(rtok, "unknown-keyword", f"unknown herald requirement {rtok[0]!r}")
                continue
            eta, onoff = 1.0, False
            for tok in args:
                if tok[0] == "onoff":
                    onoff = True
                elif not tok[0].startswith("eta="):
                    bad(tok, "bad-argument", f"unexpected herald option {tok[0]!r}")
                elif (ev := number(tok[0][4:], tok, 4)) is not None:
                    if 0.0 <= ev <= 1.0:
                        eta = ev
                    else:
                        bad(tok, "bad-argument", "eta must be in [0, 1]")
            if onoff and rtok[0] == "exactly":
                bad(rtok, "bad-argument", "an on-off detector cannot resolve exact counts")
            if mode(mtok) and len(issues) == first:
                heralded.add(mtok[0])
                operations.append(HeraldStmt(mtok[0], rtok[0], count, eta, onoff))
        elif kw == "out":
            if not rest:
                bad(toks[0], "bad-argument", "out takes a request kind")
                continue
            otok, args = rest[0], rest[1:]
            kind = otok[0]
            usage = _OUTPUT_ARGS.get(kind)
            if usage is None:
                bad(otok, "unknown-keyword", f"unknown output request {kind!r}")
                continue
            if usage and not args:
                bad(otok, "bad-argument", f"out {kind} takes a mode")
                continue
            if usage and not mode(args[0], live=False):
                continue
            if len(args) != len(usage.split()) or kind == "fidelity" and args[1][0] != "input":
                bad(otok, "bad-argument", f"out {kind} takes {usage or 'no arguments'}")
                continue
            grid = None
            if kind == "wigner":
                gtok = args[1]
                parts = gtok[0].split(":")
                if len(parts) != 3:
                    bad(gtok, "bad-argument", f"expected <min>:<max>:<count>, got {gtok[0]!r}")
                    continue
                lo = number(parts[0], gtok)
                hi = number(parts[1], gtok, len(parts[0]) + 1)
                cnt = number(parts[2], gtok, len(parts[0]) + len(parts[1]) + 2, integer=True)
                if len(issues) > first:
                    continue
                if cnt < 2 or not hi > lo:
                    bad(gtok, "bad-argument", "grid needs min < max and count >= 2")
                    continue
                grid = (lo, hi, cnt)
            out = OutputStmt(kind, args[0][0] if args else None, grid)
            if any((o.kind, o.mode) == (out.kind, out.mode) for o in outputs):  # same artifact
                bad(toks[0], "duplicate-output", f"repeats an earlier out {kind} request")
            else:
                outputs.append(out)
        else:
            bad(toks[0], "unknown-keyword", f"unknown keyword {kw!r}")

    top = ("", 1, 1)  # whole-file issues are reported at line 1, column 1
    if not modes:
        bad(top, "no-modes-declared", "no modes declared")
    for m in modes:
        if m not in inputs:
            bad(top, "missing-input", f"mode {m!r} has no input statement")
    for out in outputs:
        if out.mode in heralded:
            bad(top, "mode-after-herald",
                f"output requests mode {out.mode!r}, which was heralded and traced")
    if not outputs:
        bad(top, "no-outputs", "at least one output request is required")
    if issues:
        raise CircuitParseError(issues)
    return CircuitSpec(modes, tuple(inputs[m] for m in modes), tuple(operations), tuple(outputs))


# ---------------------------------------------------------------------------
# compilation


# The largest cutoff the tail model will size; a circuit whose predicted tail
# has not met the budget by then needs an explicit cutoff.
_MAX_CUTOFF = 512
_LEVELS = np.arange(_MAX_CUTOFF + 1)
# the Laguerre recurrence's factors 2n + 1, n + 1 and n/(n + 1), one row per level
_ODD, _NEXT, _FRAC = (c[:, None] for c in (2 * _LEVELS + 1, _LEVELS + 1, _LEVELS / (_LEVELS + 1)))
_LOG2E = 1.0 / math.log(2.0)
_EYE2 = np.eye(2)
# A click on a squeezer's idler counts every photon number n >= 1 whose
# weight against n = 1 (see _click_counts) is at least this fraction of the
# leak budget.
_CLICK_FLOOR = 1e-3


@lru_cache(maxsize=16)
def _element_symplectic(kind: str, value: float, i: int, j: int, size: int) -> np.ndarray:
    """The read-only map of an element on quadratures i, i + 1 and j, j + 1 of ``size``.

    The quadratures are x = a + a†, p = −i(a − a†), and the conventions as in
    :mod:`qocsim.elements`: the beam splitter sends ⟨a1⟩ → t⟨a1⟩ − r⟨a2⟩ and
    ⟨a2⟩ → r⟨a1⟩ + t⟨a2⟩, the squeezer ⟨a⟩ → μ⟨a⟩ − ν⟨d†⟩.
    """
    s = np.eye(size)
    if kind == "bs":
        t, r = math.sqrt(value), math.sqrt(1.0 - value)
        for q in (0, 1):
            s[i + q, i + q] = s[j + q, j + q] = t
            s[i + q, j + q], s[j + q, i + q] = -r, r
    else:
        mu, nu = math.cosh(value), math.sinh(value)
        s[i, i] = s[i + 1, i + 1] = s[j, j] = s[j + 1, j + 1] = mu
        s[i, j] = s[j, i] = -nu
        s[i + 1, j + 1] = s[j + 1, i + 1] = nu
    s.setflags(write=False)
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
    size = 2 * len(index)
    # the Gaussian as one matrix, [[cov, mean], [meanᵀ, 1]] at first: an element's map,
    # extended by 1, and a herald's Schur complement update both (the last row is unread)
    state = np.eye(size + 1)
    vacuum = {inp.mode for inp in spec.inputs if inp.kind == "vacuum"}
    counts = {(0, 0): 0.0}  # (creations, annihilations) -> ln relative weight
    boost = 0.0
    factor = 1.0
    last: dict[str, str] = {}
    for inp in spec.inputs:
        i = 2 * index[inp.mode]
        if inp.kind == "coherent":
            state[i : i + 2, size] = state[size, i : i + 2] = 2.0 * inp.params[0], 2.0 * inp.params[1]
        elif inp.kind == "thermal":
            state[i : i + 2, i : i + 2] *= 2.0 * inp.params[0] + 1.0
        elif inp.kind == "fock":
            counts = {(c + int(inp.params[0]), a): w for (c, a), w in counts.items()}
    states, stages = [], []  # stages: (live modes, counts, ln boost)

    def record(live: tuple[str, ...], state: np.ndarray, counts: dict) -> None:
        states.append(state)
        stages.append((live, counts, boost))

    def condition(op: HeraldStmt, live: tuple[str, ...], state: np.ndarray,
                  counts: dict) -> tuple:
        h = 2 * index[op.mode]
        cross, e = state[h : h + 2], op.eta  # the mode's rows: its block, its mean last
        block = cross[:, h : h + 2]
        (p, r), (t, u) = block.tolist()
        p, r, t, u = e * p + 2.0 - e, e * r, e * t, e * u + 2.0 - e  # η·block + (1 − η) + 1
        f = e / (p * u - r * t)
        state = state - state[:, h : h + 2] @ np.array([[u * f, -r * f], [-t * f, p * f]]) @ cross
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
                detected = _click_counts(vb, math.sqrt(e) * cross[:, size], max(0, c - a), floor)
            else:
                detected = {1: 0.0}
            for n, wn in detected.items():
                key = (c + n, a) if create else (c, a + n)
                new_counts[key] = w + wn if key not in new_counts else float(
                    np.logaddexp(new_counts[key], w + wn))
        return tuple(m for m in live if m != op.mode), state, new_counts

    live = spec.modes
    record(live, state, counts)
    for op in spec.operations:
        if isinstance(op, ElementStmt):
            s = _element_symplectic(op.kind, op.value, *(2 * index[m] for m in op.modes), size + 1)
            state = s @ state @ s.T
            if op.kind == "tmsq":
                boost += 2.0 * math.log(math.cosh(op.value))
            elif any(m in vacuum and m not in last for m in op.modes):
                factor *= op.value**2
            for m in op.modes:
                last[m] = op.kind
        else:
            live, state, counts = condition(op, live, state, counts)
        record(live, state, counts)
    for tail in branches:
        walk = (live, state, counts)
        for op in tail:
            walk = condition(op, *walk)
            record(*walk)
    stack = np.array(states)
    shape = (len(states), len(index), 2)
    blocks = np.einsum("siaib->siab", stack[:, :size, :size].reshape(shape + shape[1:]))
    x, q = (v.tolist() for v in _displaced_thermal(blocks, stack[:, :size, size].reshape(shape)))
    rows, starts, modes = [], [], []  # rows: six numbers each, one after another
    for xs, qs, (live, counts, g) in zip(x, q, stages):
        n = len(rows) // 6
        starts += range(n, n + len(live) * len(counts), len(counts))
        modes += live
        for m in live:
            for (c, a), w in counts.items():
                rows += (xs[index[m]], qs[index[m]], c + a, max(0, c - a), g, w)
    return np.array(rows, dtype=float).reshape(-1, 6), starts, modes, factor


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
    power, scale, j = k - j, np.exp(w), j.astype(int)
    column, spare = np.arange(len(rows)), np.empty(len(rows))
    held_whole = (k == 0) & (g > 0.0)  # then j = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            top = _LEVELS[:levels, None]
            # P(n + 1) = a[n] P(n) − b[n] P(n − 1)
            a = (q * _ODD[:levels] + (1 - q) * x) / _NEXT[:levels]
            b = _FRAC[:levels] * (q * q)
            pmf = np.zeros((levels + 2, len(rows)))  # pmf[n] = P(n); the last row stays 0
            prev, cur = pmf[-1], pmf[0]
            cur[:] = np.ldexp(1.0, -(x * _LOG2E).astype(int))
            for am, bm, nxt in zip(a, b, pmf[1:-1]):
                np.multiply(am, cur, nxt)
                np.multiply(bm, prev, spare)
                np.subtract(nxt, spare, nxt)
                prev, cur = cur, nxt
            perm = np.maximum(top + 1 - _LEVELS[: int(jm) + 1], 0.0)
            perm[:, 0] = 1.0  # then perm.cumprod(axis=1)[n, j] = n!/(n − j)!
            level = perm.cumprod(axis=1)[:, j] * pmf[np.maximum(top - j, -1), column]
            weight = level.cumsum(axis=0)
            ratio = np.where(level > 0.0, pmf[1 : levels + 1] / level, 0.0)
            held = np.where(held_whole, np.where(ratio < 1.0, level / (1.0 - ratio), np.inf),
                            level * top**power * np.exp(np.minimum(g * top, 700.0)))
            leak = np.where(weight > 0.0, held / weight, 1.0) * scale
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

    The parser's mode rules are checked here for every spec, so that a spec
    built in code obeys them too: each declared mode has one input, each
    input, element, herald and output names only declared modes, none that an
    earlier herald traced, and no mode twice (``ValueError`` otherwise).  The
    executors rely on these rules.

    The plan is the spec plus each mode's cutoff, the ``branches`` and each
    mode's charge sign (:func:`_charge_signs`), with which the staged executor
    carries Fock-diagonal inputs collapsed by charge; when to attach a mode is
    the executor's business.  Each entry of ``branches`` heralds distinct
    modes that some statement uses and no herald of the spec traces; the
    executor runs it on the spec's final state, and the cutoffs are sized for
    those stages too.  Compilation is deterministic and idempotent.

    An explicit ``cutoff`` holds for every mode and is never doubled: failing
    loudly is the point of pinning one.  It must be above every Fock input's
    level and every ``exactly`` herald's count (``ValueError`` otherwise).
    Otherwise a tail model of every live mode (:func:`_tail_model`) is
    evaluated from the spec alone, starting at the exact input tails (Poisson
    for coherent, geometric for thermal, a point mass for Fock inputs).  Each
    mode's cutoff is the smallest d at which every stage the executor checks,
    those of the forked ``branches`` included, keeps that mode's predicted
    top-level population within ``leak_budget``, so a mode that only ever
    holds a tapped photon or two keeps a few levels (:func:`_group_cutoffs`).
    A mode that needs more than 512 levels, or a tail past the float range,
    raises :class:`CutoffCeilingError`.  The executor doubles every mode's
    cutoff once if the prediction still falls short.

    A mode heralded ``exactly k`` with k >= 2, in the spec or in a branch,
    keeps k − 1 levels more than predicted; more than 512 raises
    :class:`CutoffCeilingError` too.  The prediction covers the mode's tail
    before its herald; the shift keeps as many levels above k as it keeps
    above a single photon.  In Fig. 1 that holds P(PD0) within 1e-7 of a run
    with ten more levels for k = 2 to 7, where d = k + 1 is 2.5e-2 off at
    k = 5.
    """
    branches = tuple(map(tuple, branches))
    touched: set[str] = set()
    heralded: set[str] = set()
    for m in spec.modes:
        if (count := [i.mode for i in spec.inputs].count(m)) != 1:
            raise ValueError(f"mode {m!r} " + ("already has an input" if count else "has no input statement"))
    for stmt in (*spec.inputs, *spec.operations, *(out for out in spec.outputs if out.mode is not None)):
        named = stmt.modes if isinstance(stmt, ElementStmt) else (stmt.mode,)
        for m in named:
            if m not in spec.modes:
                raise ValueError(f"mode {m!r} is not declared")
            if m in heralded:
                raise ValueError(f"mode {m!r} was heralded and traced")
        if len(set(named)) < len(named):
            raise ValueError(f"{stmt.kind} modes must differ, got {named}")
        if isinstance(stmt, ElementStmt):
            touched.update(named)
        elif isinstance(stmt, HeraldStmt):
            if stmt.mode not in touched:
                warnings.warn(
                    f"herald on mode {stmt.mode!r} which no element has touched",
                    stacklevel=2,
                )
            heralded.add(stmt.mode)
    live = (touched | {out.mode for out in spec.outputs if out.mode is not None}) - heralded
    for tail in branches:
        modes = [op.mode for op in tail]
        if not live.issuperset(modes) or len(set(modes)) < len(modes):
            raise ValueError(f"branch heralds {modes} must each trace a distinct live mode")
    exact: dict[str, int] = {}  # the largest exactly count heralded on each mode
    for op in (*spec.operations, *sum(branches, ())):
        if isinstance(op, HeraldStmt) and op.requirement == "exactly":
            exact[op.mode] = max(exact.get(op.mode, 0), op.count)

    if cutoff is not None:
        if cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if any(i.kind == "fock" and i.params[0] >= cutoff for i in spec.inputs):
            raise ValueError(f"cutoff {cutoff} is not above a fock input's level")
        if any(k >= cutoff for k in exact.values()):
            raise ValueError(f"cutoff {cutoff} is not above an exactly herald's count")
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
        for mode, k in exact.items():
            cutoffs[mode] += max(0, k - 1)
        if max(cutoffs.values()) > _MAX_CUTOFF:
            raise CutoffCeilingError()
    return ExecutionPlan(spec, cutoffs, leak_budget, cutoff is None, branches,
                         _charge_signs(spec))
