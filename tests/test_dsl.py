import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qocsim.dsl import (
    CircuitParseError,
    CircuitSpec,
    CutoffPolicy,
    ElementStmt,
    HeraldStmt,
    InputStmt,
    OutputStmt,
    compile_circuit,
    parse,
    print_circuit,
)
from qocsim.engine import LeakBudgetError, execute_plan

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


def test_no_outputs():
    with pytest.raises(CircuitParseError) as exc:
        parse("modes a\ninput a vacuum\n")
    assert "no-outputs" in issue_codes(exc.value)


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


def test_compile_fig1_plan_shape():
    spec = parse(FIG1_TEXT)
    plan = compile_circuit(spec, CutoffPolicy())
    ops = [s.op for s in plan.steps]
    # lazy prepares: a and b before BS1, d before the squeezer, c before BS2
    assert ops[:4] == ["prepare", "prepare", "unitary", "prepare"]
    # conditioning traces the mode out: no separate trace step, and no later
    # step touches a heralded mode
    assert "trace" not in ops
    for i, s in enumerate(plan.steps):
        if s.op == "condition":
            for later in plan.steps[i + 1:]:
                assert later.mode != s.mode
                assert s.mode not in (later.modes or ())
    # the policy's prediction meets the leak budget on the first attempt
    assert execute_plan(plan).cutoff == plan.cutoff


def test_compile_idempotent():
    spec = parse(FIG1_TEXT)
    p1 = compile_circuit(spec, CutoffPolicy())
    p2 = compile_circuit(parse(print_circuit(spec)), CutoffPolicy())
    assert p1 == p2


def test_compile_without_heralds_has_no_conditions():
    text = "modes a b\ninput a vacuum\ninput b vacuum\nbs a b T=0.5\nout probs\n"
    plan = compile_circuit(parse(text))
    assert all(s.op != "condition" for s in plan.steps)


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
            plan = compile_circuit(parse(text), CutoffPolicy(leak_budget=budget))
            assert plan.cutoff == _smallest_passing(pmf, budget) and plan.may_double
        plan = compile_circuit(parse(text), CutoffPolicy())
        assert execute_plan(plan).cutoff == plan.cutoff
        with pytest.raises(LeakBudgetError):
            execute_plan(compile_circuit(parse(text), CutoffPolicy(explicit=plan.cutoff - 1)))
    vac = parse("modes a\ninput a vacuum\nout probs\n")
    assert compile_circuit(vac, CutoffPolicy()).cutoff == 2
    fock = parse("modes a\ninput a fock 3\nout probs\n")
    assert compile_circuit(fock, CutoffPolicy()).cutoff == 5  # level 3 below the top
    explicit = compile_circuit(vac, CutoffPolicy(explicit=7))
    assert explicit.cutoff == 7 and explicit.may_double is False
    with pytest.raises(ValueError, match="leak_budget > 0"):
        compile_circuit(vac, CutoffPolicy(leak_budget=0.0))
