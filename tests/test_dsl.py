import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qocsim.dsl import (
    CircuitParseError,
    CircuitSpec,
    CutoffCeilingError,
    ElementStmt,
    HeraldStmt,
    InputStmt,
    OutputStmt,
    compile_circuit,
    parse,
)
from qocsim.engine import LeakBudgetError, execute_plan
from reference import print_circuit

PARSE_ISSUES = Path(__file__).parent / "data" / "parse_issues.json"

FIG1_TEXT = """\
# four-mode heralded add/subtract interferometer
modes a b c d
input a coherent 1.0 0.0
input b vacuum
input c vacuum
input d vacuum
bs a b T=0.99
tmsq a d s=0.1
herald d exactly 1
bs a c T=0.99
bs c b T=0.5
herald b noclick onoff
herald c click onoff
out probs
out fidelity a input
out state a
"""


def issue_codes(exc: CircuitParseError) -> set[str]:
    return {i.code for i in exc.issues}


def test_parse_fig1_text():
    spec = parse(FIG1_TEXT)
    assert spec.modes == ("a", "b", "c", "d")
    assert len(spec.inputs) == 4
    assert sum(isinstance(op, ElementStmt) for op in spec.operations) == 4
    assert sum(isinstance(op, HeraldStmt) for op in spec.operations) == 3
    assert len(spec.outputs) == 3


def test_empty_file_reports_no_modes():
    with pytest.raises(CircuitParseError) as exc:
        parse("")
    assert "no-modes-declared" in issue_codes(exc.value)


def test_bs_same_mode_rejected():
    text = "modes a\ninput a vacuum\nbs a a T=0.5\nout probs\n"
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert "modes-must-differ" in issue_codes(exc.value)


def test_unknown_keyword_with_position():
    with pytest.raises(CircuitParseError) as exc:
        parse("modes a\ninput a vacuum\nfrobnicate a\nout probs\n")
    issues = [i for i in exc.value.issues if i.code == "unknown-keyword"]
    assert issues and issues[0].line == 3 and issues[0].column == 1


def test_undeclared_mode():
    with pytest.raises(CircuitParseError) as exc:
        parse("modes a\ninput a vacuum\ninput q vacuum\nout probs\n")
    assert "undeclared-mode" in issue_codes(exc.value)


def test_duplicate_input():
    text = "modes a\ninput a vacuum\ninput a vacuum\nout probs\n"
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert "duplicate-input" in issue_codes(exc.value)


def test_missing_input():
    with pytest.raises(CircuitParseError) as exc:
        parse("modes a b\ninput a vacuum\nout probs\n")
    assert "missing-input" in issue_codes(exc.value)


def test_malformed_number():
    text = "modes a b\ninput a coherent 1.0 2x\ninput b vacuum\nout probs\n"
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert "malformed-number" in issue_codes(exc.value)


@pytest.mark.parametrize(
    "line",
    ["input a coherent 1e400 0.0", "input a coherent 0.0 -1e400", "input a thermal 1e400",
     "tmsq a b s=1e400", "out wigner a -1e400:1:5", "out wigner a 0:1e400:5"],
    ids=["coherent-re", "coherent-im", "thermal", "tmsq-s", "grid-min", "grid-max"],
)
def test_non_finite_number_is_malformed(line):
    # 1e400 overflows to inf; every real literal must be finite
    lines = ["modes a b", "input a vacuum", "input b vacuum", "out probs"]
    if line.startswith("input a"):
        lines[1] = line
    else:
        lines.insert(3, line)
    with pytest.raises(CircuitParseError) as exc:
        parse("\n".join(lines) + "\n")
    # a rejected input statement also leaves its mode without an input
    assert issue_codes(exc.value) - {"missing-input"} == {"malformed-number"}


def test_no_outputs():
    with pytest.raises(CircuitParseError) as exc:
        parse("modes a\ninput a vacuum\n")
    assert "no-outputs" in issue_codes(exc.value)


def test_repeated_output_is_rejected_at_the_second_request():
    # a second request of one kind on one mode would overwrite the first's artifact
    head = "modes a b\ninput a vacuum\ninput b vacuum\nbs a b T=0.5\n"
    for first, second in (("out wigner a -2:2:5", "out wigner a -1:1:3"),
                          ("out state a", "out state a"),
                          ("out fidelity a input", "out fidelity a input"),
                          ("out probs", "out probs")):
        with pytest.raises(CircuitParseError) as exc:
            parse(f"{head}{first}\nout state b\n{second}\n")
        (issue,) = exc.value.issues
        assert (issue.code, issue.line, issue.column) == ("duplicate-output", 7, 1)
    # one request of each kind on each mode is fine
    spec = parse(f"{head}out wigner a -2:2:5\nout wigner b -2:2:5\nout state a\nout probs\n")
    assert len(spec.outputs) == 4


def test_mode_reuse_after_herald():
    text = (
        "modes a b\ninput a vacuum\ninput b vacuum\n"
        "bs a b T=0.5\nherald b click\nbs a b T=0.5\nout probs\n"
    )
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert "mode-after-herald" in issue_codes(exc.value)


def test_output_on_heralded_mode_rejected():
    text = (
        "modes a b\ninput a vacuum\ninput b vacuum\n"
        "bs a b T=0.5\nherald b click\nout state b\n"
    )
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert "mode-after-herald" in issue_codes(exc.value)


def test_exactly_with_onoff_rejected():
    text = (
        "modes a b\ninput a vacuum\ninput b vacuum\n"
        "bs a b T=0.5\nherald b exactly 1 onoff\nout probs\n"
    )
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert "bad-argument" in issue_codes(exc.value)


def test_errors_carry_line_numbers():
    text = "modes a\ninput a vacuum\nbs a a T=0.x\nout wigner a 1:0:3\n"
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert all(i.line >= 1 and i.column >= 1 for i in exc.value.issues)
    assert len(exc.value.issues) >= 2  # multiple issues reported at once


def test_print_parse_round_trip_fig1():
    spec = parse(FIG1_TEXT)
    assert parse(print_circuit(spec)) == spec


def test_pinned_texts_keep_their_issues_or_canonical_text():
    cases = json.loads(PARSE_ISSUES.read_text(encoding="utf-8"))["cases"]
    assert len(cases) >= 450
    for case in cases:
        try:
            printed = print_circuit(parse(case["text"]))
        except CircuitParseError as exc:
            issues = [[i.line, i.column, i.code, i.message] for i in exc.issues]
            assert issues == case.get("issues"), case["text"]
        else:
            assert printed == case.get("printed"), case["text"]


def test_comments_not_preserved():
    spec = parse(FIG1_TEXT)
    assert "#" not in print_circuit(spec)


def _random_spec(rng: np.random.Generator) -> CircuitSpec:
    n_modes = int(rng.integers(2, 5))
    modes = tuple(f"m{i}" for i in range(n_modes))
    inputs = []
    for m in modes:
        kind = rng.choice(["coherent", "thermal", "fock", "vacuum"])
        if kind == "coherent":
            inputs.append(InputStmt(m, "coherent", (round(float(rng.normal()), 3), round(float(rng.normal()), 3))))
        elif kind == "thermal":
            inputs.append(InputStmt(m, "thermal", (round(float(rng.uniform(0, 2)), 3),)))
        elif kind == "fock":
            inputs.append(InputStmt(m, "fock", (float(rng.integers(0, 3)),)))
        else:
            inputs.append(InputStmt(m, "vacuum", ()))
    ops = []
    live = list(modes)
    for _ in range(int(rng.integers(1, 5))):
        if len(live) >= 2 and rng.random() < 0.75:
            i, j = rng.choice(len(live), size=2, replace=False)
            kind = "bs" if rng.random() < 0.6 else "tmsq"
            value = round(float(rng.uniform(0.3, 0.99)), 4) if kind == "bs" else round(float(rng.uniform(0.01, 0.3)), 4)
            ops.append(ElementStmt(kind, (live[i], live[j]), value))
        elif len(live) > 1:
            victim = live[int(rng.integers(0, len(live)))]
            req = rng.choice(["click", "noclick", "exactly"])
            if req == "exactly":
                ops.append(HeraldStmt(victim, "exactly", int(rng.integers(0, 2)), float(rng.choice([1.0, 0.5])), False))
            else:
                ops.append(HeraldStmt(victim, req, None, float(rng.choice([1.0, 0.7])), bool(rng.random() < 0.5)))
            live.remove(victim)
    outputs = [OutputStmt("probs")]
    if live:
        outputs.append(OutputStmt("state", live[0]))
        if rng.random() < 0.5:
            outputs.append(OutputStmt("fidelity", live[0]))
        if rng.random() < 0.3:
            outputs.append(OutputStmt("wigner", live[0], (-2.0, 2.0, 11)))
    return CircuitSpec(modes, tuple(inputs), tuple(ops), tuple(outputs))


def test_round_trip_on_randomized_specs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        spec = _random_spec(rng)
        text = print_circuit(spec)
        assert parse(text) == spec, text


def test_canonical_text_stable():
    spec = parse(FIG1_TEXT)
    assert print_circuit(spec) == print_circuit(parse(print_circuit(spec)))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=400))
def test_fuzz_never_crashes(text):
    try:
        parse(text)
    except CircuitParseError:
        pass  # structured errors are the only acceptable failure mode


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["modes", "input", "bs", "tmsq", "herald", "out", "a", "b", "T=0.5",
             "s=0.1", "coherent", "1.0", "-?", "exactly", "probs", ":", "#x", "é"]
        ),
        max_size=30,
    )
)
def test_fuzz_token_soup(tokens):
    text = " ".join(tokens)
    try:
        parse(text)
    except CircuitParseError as exc:
        assert all(i.line >= 1 for i in exc.issues)


def test_compile_idempotent():
    spec = parse(FIG1_TEXT)
    p1 = compile_circuit(spec)
    p2 = compile_circuit(parse(print_circuit(spec)))
    assert p1 == p2


def test_compile_warns_on_untouched_herald():
    text = "modes a b\ninput a vacuum\ninput b vacuum\nherald b click\nout state a\n"
    with pytest.warns(UserWarning, match="no element has touched"):
        compile_circuit(parse(text))


def _smallest_passing(pmf, budget: float) -> int:
    """Smallest d whose truncated, renormalized top level holds at most ``budget``."""
    d = 2
    while pmf[d - 1] > budget * sum(pmf[:d]):
        d += 1
    return d


def test_cutoff_policy_rules():
    # a bare input is sized from its exact tail: the smallest d that passes
    levels = range(80)
    poisson = [math.exp(-4.0) * 4.0**n / math.factorial(n) for n in levels]
    geometric = [0.5 ** (n + 1) for n in levels]
    for text, pmf in (
        ("modes a\ninput a coherent 2.0 0.0\nout state a\n", poisson),
        ("modes a\ninput a thermal 1.0\nout state a\n", geometric),
    ):
        for budget in (1e-4, 1e-6, 1e-9):
            plan = compile_circuit(parse(text), leak_budget=budget)
            assert plan.cutoff == _smallest_passing(pmf, budget) and plan.may_double
        plan = compile_circuit(parse(text))
        assert execute_plan(plan).cutoff == plan.cutoff
        with pytest.raises(LeakBudgetError):
            execute_plan(compile_circuit(parse(text), cutoff=plan.cutoff - 1))
    # past P(n) ~ 1e150 (peaks near 1e155 at α = 19, 1e172 at α = 20) the
    # policy must still match the exact Poisson law, summed in log space
    for alpha, budget, want in ((19.0, 1e-4, 426), (19.0, 1e-6, 450),
                                (20.0, 1e-4, 468), (20.0, 1e-6, 493)):
        text = f"modes a\ninput a coherent {alpha} 0.0\nout state a\n"
        plan = compile_circuit(parse(text), leak_budget=budget)
        lam = alpha * alpha
        logp = np.array([n * math.log(lam) - lam - math.lgamma(n + 1) for n in range(600)])
        d = 2 + int(np.argmax((logp - np.logaddexp.accumulate(logp))[1:] <= math.log(budget)))
        assert plan.cutoff == d == want
    vac = parse("modes a\ninput a vacuum\nout probs\n")
    assert compile_circuit(vac).cutoff == 2
    fock = parse("modes a\ninput a fock 3\nout probs\n")
    assert compile_circuit(fock).cutoff == 5  # level 3 below the top
    explicit = compile_circuit(vac, cutoff=7)
    assert explicit.cutoff == 7 and explicit.may_double is False
    # a Fock level needs an explicit cutoff above it
    assert compile_circuit(fock, cutoff=4).cutoff == 4
    for cutoff in (2, 3):
        with pytest.raises(ValueError, match="is not above a fock input's level"):
            compile_circuit(fock, cutoff=cutoff)
    with pytest.raises(ValueError, match="leak_budget > 0"):
        compile_circuit(vac, leak_budget=0.0)


def test_compile_rejects_branch_heralds_on_modes_not_live():
    # mode e is declared but no statement uses it
    text = FIG1_TEXT.replace("herald b noclick onoff\nherald c click onoff\n", "")
    spec = parse(text.replace("modes a b c d", "modes a b c d e") + "input e vacuum\n")
    plan = compile_circuit(spec, branches=[[HeraldStmt("b", "noclick")]])
    assert plan.branches == ((HeraldStmt("b", "noclick"),),)
    for tail in ([HeraldStmt("d", "click")], [HeraldStmt("b", "click"), HeraldStmt("b", "click")],
                 [HeraldStmt("e", "click")]):
        with pytest.raises(ValueError, match="distinct live mode"):
            compile_circuit(spec, branches=[tail])


def test_bs_transmittivity_above_1_is_a_parse_issue():
    text = "modes a b\ninput a vacuum\ninput b vacuum\nbs a b T=1.5\nout probs\n"
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    (issue,) = exc.value.issues
    assert (issue.code, issue.line, issue.message) == ("bad-argument", 4, "T must be in (0, 1]")


def test_compile_rejects_an_explicit_cutoff_below_2():
    # the CLI and SchemeParams refuse it first; a caller of compile_circuit meets this gate
    with pytest.raises(ValueError, match="cutoff must be >= 2"):
        compile_circuit(parse(FIG1_TEXT), cutoff=1)


def test_policy_ceiling_failure_is_typed():
    spec = parse("modes a\ninput a coherent 25.0 0.0\nout state a\n")
    with pytest.raises(CutoffCeilingError, match="no cutoff up to 512"):
        compile_circuit(spec)
    assert issubclass(CutoffCeilingError, ValueError)


@pytest.mark.parametrize("level", [511, 512, 513, 600])
def test_policy_rejects_a_fock_level_the_ceiling_cannot_hold(level):
    # the heralded idler photon adds one level, so fig1 needs level + 2 levels
    spec = parse(FIG1_TEXT.replace("input a coherent 1.0 0.0", f"input a fock {level}"))
    with pytest.raises(CutoffCeilingError, match="no cutoff up to 512"):
        compile_circuit(spec)


@pytest.mark.parametrize("digits, code", [(400, "bad-argument"), (5000, "malformed-number")],
                         ids=["overflows-a-float", "too-long-for-int"])
def test_fock_literal_too_large_for_a_float_is_a_parse_issue(digits, code):
    text = f"modes a\ninput a fock 1{'0' * digits}\nout state a\n"
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert issue_codes(exc.value) - {"missing-input"} == {code}


def test_policy_doubling_stops_at_the_ceiling_from_any_start():
    # the first pass runs 498 levels here, not a power of two: the next is 512
    spec = parse("modes a\ninput a coherent 22.0 0.0\nout state a\n")
    with pytest.raises(CutoffCeilingError, match="no cutoff up to 512"):
        compile_circuit(spec)


def _fig1_exactly(k: int, inp: str = "coherent 1.0 0.0") -> str:
    return FIG1_TEXT.replace("herald d exactly 1", f"herald d exactly {k}").replace(
        "input a coherent 1.0 0.0", f"input a {inp}")


def test_an_exactly_herald_keeps_k_minus_1_more_levels_on_its_mode():
    cutoffs = {k: compile_circuit(parse(_fig1_exactly(k))).cutoffs for k in (0, 1, 5)}
    assert cutoffs[0]["d"] == cutoffs[1]["d"] == 5
    assert cutoffs[5]["d"] == 9
    # a branch tail's exactly herald is sized the same way
    text = "modes a b\ninput a coherent 1.0 0.0\ninput b vacuum\nbs a b T=0.5\nout state a\n"
    spec = parse(text)
    plans = [compile_circuit(spec, branches=[[HeraldStmt("b", "exactly", k)]]) for k in (1, 4)]
    assert plans[1].cutoffs["b"] == plans[0].cutoffs["b"] + 3


def test_an_exactly_count_past_the_ceiling_is_typed():
    text = ("modes a b\ninput a coherent 1.0 0.0\ninput b vacuum\nbs a b T=0.5\n"
            "herald a noclick\nherald b exactly {}\nout probs\n")
    predicted = compile_circuit(parse(text.format(1))).cutoffs["b"]
    last = 512 - predicted + 1  # the largest count whose mode still fits in 512 levels
    assert compile_circuit(parse(text.format(last))).cutoffs["b"] == 512
    with pytest.raises(CutoffCeilingError):
        compile_circuit(parse(text.format(last + 1)))


@pytest.mark.parametrize("cutoff", [3, 5])
def test_an_exactly_count_at_or_above_an_explicit_cutoff_is_rejected(cutoff):
    message = f"cutoff {cutoff} is not above an exactly herald's count"
    with pytest.raises(ValueError, match=message):
        compile_circuit(parse(_fig1_exactly(5)), cutoff=cutoff)
    spec = parse("modes a b\ninput a vacuum\ninput b vacuum\nbs a b T=0.5\nout state a\n")
    with pytest.raises(ValueError, match=message):
        compile_circuit(spec, branches=[[HeraldStmt("b", "exactly", 5)]], cutoff=cutoff)
    compile_circuit(spec, branches=[[HeraldStmt("b", "exactly", 5)]], cutoff=6)


@pytest.mark.parametrize("inp", ["coherent 1.0 0.0", "thermal 1.0"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_an_exactly_herald_is_converged_at_its_sized_cutoff(inp, k):
    plan = compile_circuit(parse(_fig1_exactly(k, inp)))
    wider = replace(plan, cutoffs={**plan.cutoffs, "d": plan.cutoffs["d"] + 10})
    (run, ref) = (execute_plan(p) for p in (plan, wider))
    assert run.heralds[0].mode == "d"
    assert run.heralds[0].probability == pytest.approx(ref.heralds[0].probability, rel=1e-7)
    assert run.outputs[1] == pytest.approx(ref.outputs[1], rel=1e-7)  # fidelity of a to its input
