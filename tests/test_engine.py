import itertools
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from qocsim import core, engine, phasespace
from qocsim.core import apply_matrix
from qocsim.dsl import (
    CircuitSpec,
    ElementStmt,
    HeraldStmt,
    InputStmt,
    OutputStmt,
    compile_circuit,
    parse,
)
from qocsim.elements import beam_splitter_unitary, element_sectors, two_mode_squeezer_unitary
from qocsim.engine import (
    Ensemble,
    LeakBudgetError,
    execute_plan,
    execute_plan_brute,
)
from qocsim.measurement import ZeroProbabilityError
from qocsim.scheme import SchemeParams, run_interferometer
from reference import embed, ensemble_to_mixed, fig1_branch_circuit, fig1_plan, output_value, to_mixed

LOOSE = {"cutoff": 6, "leak_budget": 1.0}


def _random_circuit(rng: np.random.Generator, n_heralds: int) -> CircuitSpec:
    """Small random linear-optical circuit with heralds; d=6-friendly inputs."""
    n_modes = int(rng.integers(2, 4))
    modes = tuple(f"m{i}" for i in range(n_modes))
    inputs = []
    for m in modes:
        roll = rng.random()
        if roll < 0.4:
            inputs.append(InputStmt(m, "coherent", (round(float(rng.uniform(0.1, 0.7)), 3), 0.0)))
        elif roll < 0.6:
            inputs.append(InputStmt(m, "thermal", (round(float(rng.uniform(0.1, 0.5)), 3),)))
        elif roll < 0.8:
            inputs.append(InputStmt(m, "fock", (float(rng.integers(0, 2)),)))
        else:
            inputs.append(InputStmt(m, "vacuum", ()))
    ops: list = []
    live = list(modes)
    for _ in range(int(rng.integers(1, 4))):
        if len(live) < 2:
            break
        i, j = rng.choice(len(live), size=2, replace=False)
        if rng.random() < 0.7:
            ops.append(ElementStmt("bs", (live[i], live[j]), round(float(rng.uniform(0.5, 0.95)), 4)))
        else:
            ops.append(ElementStmt("tmsq", (live[i], live[j]), round(float(rng.uniform(0.05, 0.2)), 4)))
    heralds = 0
    while heralds < n_heralds and len(live) > 1:
        victim = live[int(rng.integers(0, len(live)))]
        roll = rng.random()
        if roll < 0.4:
            ops.append(HeraldStmt(victim, "click", None, float(rng.choice([1.0, 0.6])), True))
        elif roll < 0.7:
            ops.append(HeraldStmt(victim, "noclick", None, float(rng.choice([1.0, 0.6])), bool(rng.random() < 0.5)))
        else:
            ops.append(HeraldStmt(victim, "exactly", 1, 1.0, False))
        live.remove(victim)
        heralds += 1
    outputs = [OutputStmt("probs"), OutputStmt("state", live[0])]
    return CircuitSpec(modes, tuple(inputs), tuple(ops), tuple(outputs))


def _compare(plan, tol=1e-10):
    rs = execute_plan(plan)
    rb = execute_plan_brute(plan)
    assert len(rs.heralds) == len(rb.heralds)
    for hs, hb in zip(rs.heralds, rb.heralds):
        assert hs.probability == pytest.approx(hb.probability, abs=tol)
    assert rs.joint_probability == pytest.approx(rb.joint_probability, abs=tol)
    mode = plan.spec.outputs[1].mode
    ms = output_value(rs, "state", mode)
    mb = output_value(rb, "state", mode)
    assert np.max(np.abs(ms - mb)) < tol
    return rs, rb


def test_staged_equals_brute_on_randomized_circuits():
    rng = np.random.default_rng(2024)
    built = 0
    while built < 10:
        spec = _random_circuit(rng, n_heralds=int(rng.integers(1, 3)))
        plan = compile_circuit(spec, **LOOSE)
        try:
            _compare(plan)
        except ZeroProbabilityError:
            continue  # a herald this circuit cannot satisfy; draw another
        built += 1


def test_both_executors_herald_every_mode_to_no_final_state():
    text = ("modes a b\ninput a coherent 0.5 0.0\ninput b vacuum\nbs a b T=0.5\n"
            "herald a click onoff\nherald b noclick onoff\nout probs\n")
    plan = compile_circuit(parse(text), **LOOSE)
    rs, rb = execute_plan(plan), execute_plan_brute(plan)
    assert rs.final_state is None and rb.final_state is None
    assert len(rs.heralds) == len(rb.heralds) == 2
    for hs, hb in zip(rs.heralds, rb.heralds):
        assert abs(hs.probability - hb.probability) <= 1e-10


def test_plan_execution_deterministic():
    text = (
        "modes a b\ninput a coherent 0.5 0.0\ninput b vacuum\n"
        "bs a b T=0.9\nherald b click onoff\nout probs\nout state a\n"
    )
    plan = compile_circuit(parse(text), **LOOSE)
    r1 = execute_plan(plan)
    r2 = execute_plan(plan)
    assert r1.joint_probability == r2.joint_probability
    assert np.array_equal(
        output_value(r1, "state", "a"), output_value(r2, "state", "a")
    )


FIG1_QOC = Path(engine.__file__).parent / "circuits" / "fig1.qoc"


def _run_recording_stages(monkeypatch, plan):
    """``execute_plan(plan)`` and the stage names its leak monitor checked, in order."""
    stages = []
    check = engine._LeakMonitor.check

    def recording(self, stage, populations):
        stages.append(stage)
        check(self, stage, populations)

    monkeypatch.setattr(engine._LeakMonitor, "check", recording)
    return execute_plan(plan), stages


def test_fig1_attaches_each_mode_right_before_its_first_use(monkeypatch):
    plan = compile_circuit(parse(FIG1_QOC.read_text()))
    result, stages = _run_recording_stages(monkeypatch, plan)
    # a and b before BS1, d before the squeezer, c before BS2; each herald
    # traces its mode, and nothing names a heralded mode again
    assert stages[:9] == ["prepare a", "prepare b", "bs a/b", "prepare d", "tmsq a/d",
                          "herald d", "prepare c", "bs a/c", "bs c/b"]
    assert stages[9:] == ["herald b", "herald c"]
    # the policy's prediction meets the leak budget on the first attempt
    assert result.cutoffs == plan.cutoffs


@pytest.mark.parametrize("params", [SchemeParams(alpha=1.0),
                                    SchemeParams(input_kind="thermal", nbar=1.0)],
                         ids=["coherent", "thermal-by-charge"])
def test_fig1_run_checks_every_live_mode_after_each_of_its_13_stages(monkeypatch, params):
    # the shared stages, then the pd2 and the pd1 branch's two heralds each
    checked = []
    check = engine._LeakMonitor.check

    def recording(self, stage, populations):
        checked.append((stage, "".join(populations)))
        check(self, stage, populations)

    monkeypatch.setattr(engine._LeakMonitor, "check", recording)
    run_interferometer(params)
    assert checked == [
        ("prepare a", "a"), ("prepare b", "ab"), ("bs a/b", "ab"), ("prepare d", "abd"),
        ("tmsq a/d", "abd"), ("herald d", "ab"), ("prepare c", "abc"), ("bs a/c", "abc"),
        ("bs c/b", "abc"), ("herald b", "ac"), ("herald c", "a"), ("herald c", "ab"),
        ("herald b", "a"),
    ]


def _track_ensembles(monkeypatch) -> list:
    """A list whose last entry is the live ensemble as the staged executor last changed it:
    what an attach returns, an element's members, and a compacted herald result."""
    latest = []
    attach, apply, compact = engine._attach, engine.apply_matrix, Ensemble.compact

    def attaching(*args):
        latest.append(attach(*args))
        return latest[-1]

    def applying(arr, modes, dims, *args):
        out = apply(arr, modes, dims, *args)
        latest.append(Ensemble(tuple(modes), tuple(dims), out))
        return out

    def compacting(ens):
        compact(ens)
        latest.append(ens)

    monkeypatch.setattr(engine, "_attach", attaching)
    monkeypatch.setattr(engine, "apply_matrix", applying)
    monkeypatch.setattr(Ensemble, "compact", compacting)
    return latest


def _carried_leak_plans():
    params = {"coherent": SchemeParams(alpha=1.2),
              "thermal-by-charge": SchemeParams(input_kind="thermal", nbar=0.95),
              "fock": SchemeParams(input_kind="fock", fock_n=2)}
    for name, p in params.items():
        yield name, fig1_plan(p)
    rng = np.random.default_rng(7)
    for i in range(4):
        yield f"random-{i}", compile_circuit(_random_circuit(rng, n_heralds=2), **LOOSE)
    # the heralds trace every live mode, then an output attaches a vacuum mode alone
    text = ("modes a b c\ninput a coherent 0.5 0.0\ninput b vacuum\ninput c vacuum\n"
            "bs a b T=0.5\nherald a click onoff\nherald b noclick onoff\nout state c\n")
    yield "vacuum-after-the-last-herald", compile_circuit(parse(text), **LOOSE)


@pytest.mark.filterwarnings("ignore:herald on mode")
def test_carried_leaks_equal_a_full_top_level_read_at_every_stage(monkeypatch):
    # a stage re-reads only the modes it can change: an element its two, a vacuum
    # attach none; every value the monitor checks is still the live ensemble's own
    latest = _track_ensembles(monkeypatch)
    check = engine._LeakMonitor.check
    seen = []

    def comparing(self, stage, populations):
        _, full = latest[-1].top_level_population()
        assert list(populations) == list(full), stage
        for mode, leak in populations.items():
            assert abs(leak - full[mode]) <= 1e-15 * full[mode], (stage, mode, leak, full[mode])
        seen.append(stage)
        check(self, stage, populations)

    monkeypatch.setattr(engine._LeakMonitor, "check", comparing)
    for name, plan in _carried_leak_plans():
        seen.clear()
        try:
            execute_plan(plan)
        except ZeroProbabilityError:
            continue
        assert any(s.startswith(("bs", "tmsq")) for s in seen), name
        if name == "coherent":
            assert len(seen) == 13


@pytest.mark.parametrize("stage", ["bs a/b", "tmsq a/d", "bs a/c", "bs c/b"])
def test_a_nan_after_an_element_fails_that_elements_leak_check(stage, monkeypatch):
    # the element's own modes are re-read, over the re-read weight, so a NaN on a
    # level below every top level still fails the check of the stage that wrote it
    modes = stage.split()[1]
    apply = engine.apply_matrix

    def poisoning(arr, state_modes, dims, sectors, op_modes, *args):
        out = apply(arr, state_modes, dims, sectors, op_modes, *args)
        if "/".join(op_modes) == modes:
            out[0] = np.nan  # every mode at level 0
        return out

    monkeypatch.setattr(engine, "apply_matrix", poisoning)
    plan = replace(compile_circuit(parse(FIG1_QOC.read_text())), may_double=False)
    with pytest.raises(LeakBudgetError) as exc:
        execute_plan(plan)
    assert exc.value.stage == stage and exc.value.mode in modes.split("/")
    assert math.isnan(exc.value.leak)


def test_a_second_pass_over_seven_fig1_runs_gathers_no_rows_afresh(monkeypatch):
    # seven runs of distinct (d_a, d_b) apply 28 elements, each on its own (idx, dims,
    # positions); cycled through a cache of 24 keyed so, every application would miss.
    # The rows depend only on the dims from the lowest op mode up and the positions
    # relative to it, so BS3, which skips mode a, shares them between runs of equal
    # (d_b, d_c): 24 keys, which the cache holds
    points = [SchemeParams(alpha=a) for a in (0.65, 0.8, 0.9, 1.05, 1.15, 1.25, 1.35)]
    apply, gather = engine.apply_matrix, core._gather_rows
    applied, gathered = [], []

    def recording(arr, state_modes, dims, sectors, op_modes):
        positions = tuple(state_modes.index(m) for m in op_modes)
        applied.append((sectors[0].shape, sectors[0].tobytes(), tuple(dims), positions))
        return apply(arr, state_modes, dims, sectors, op_modes)

    monkeypatch.setattr(engine, "apply_matrix", recording)
    monkeypatch.setattr(core, "_gather_rows", lambda *args: gathered.append(args) or gather(*args))
    monkeypatch.setattr(core, "_ROWS", {})
    for _ in range(2):
        applied.clear()
        gathered.clear()
        for params in points:
            run_interferometer(params)
    assert len(applied) == len(set(applied)) == 28
    assert len(core._ROWS) == 24 and gathered == []


def test_circuit_without_heralds_checks_no_herald_stage(monkeypatch):
    text = "modes a b\ninput a vacuum\ninput b vacuum\nbs a b T=0.5\nout probs\n"
    result, stages = _run_recording_stages(monkeypatch, compile_circuit(parse(text)))
    assert stages == ["prepare a", "prepare b", "bs a/b"]
    assert result.heralds == [] and result.final_state.modes == ("a", "b")


def test_output_only_mode_is_attached_and_unused_mode_never_is(monkeypatch):
    text = (
        "modes a b c d\ninput a coherent 0.3 0.0\ninput b vacuum\ninput c thermal 0.2\n"
        "input d coherent 0.5 0.0\nbs a b T=0.9\nherald b click onoff\n"
        "out probs\nout state c\nout state a\n"
    )
    plan = compile_circuit(parse(text), **LOOSE)
    result, stages = _run_recording_stages(monkeypatch, plan)
    assert stages == ["prepare a", "prepare b", "bs a/b", "herald b", "prepare c"]
    assert result.final_state.modes == ("a", "c")
    # the oracle holds every declared input, d included, and agrees on both outputs
    brute = execute_plan_brute(plan)
    assert brute.final_state.shape == (6**3, 6**3)
    for mode in ("a", "c"):
        ms = output_value(result, "state", mode)
        assert np.max(np.abs(ms - output_value(brute, "state", mode))) < 1e-10


def test_leak_budget_raises_with_diagnostic():
    text = "modes a\ninput a coherent 1.0 0.0\nout state a\n"
    plan = compile_circuit(parse(text), cutoff=4, leak_budget=1e-6)
    with pytest.raises(LeakBudgetError) as exc:
        execute_plan(plan)
    assert exc.value.cutoff == 4
    assert "increase the cutoff" in str(exc.value)


def test_adaptive_cutoff_doubles_once_on_leak():
    # a policy-compiled plan whose cutoff is lowered below the budget stands
    # for a misprediction: it is retried once at twice that cutoff
    text = "modes a\ninput a thermal 1.0\nout state a\n"
    plan = compile_circuit(parse(text), leak_budget=1e-6)
    assert execute_plan(plan).cutoff == plan.cutoff
    low = replace(plan, cutoffs={"a": plan.cutoff - 4})
    assert execute_plan(low).cutoff == 2 * low.cutoff
    with pytest.raises(LeakBudgetError):  # an explicit cutoff is never retried
        execute_plan(replace(low, may_double=False))


def test_zero_probability_herald_raises():
    text = (
        "modes a b\ninput a vacuum\ninput b vacuum\n"
        "bs a b T=0.9\nherald b exactly 3\nout state a\n"
    )
    plan = compile_circuit(parse(text), **LOOSE)
    with pytest.raises(ZeroProbabilityError):
        execute_plan(plan)


def test_mixed_input_with_inefficient_heralds_matches_brute():
    text = (
        "modes a b c\ninput a thermal 0.6\ninput b vacuum\ninput c vacuum\n"
        "bs a b T=0.8\ntmsq a c s=0.15\n"
        "herald b click eta=0.55 onoff\nherald c exactly 1\n"
        "out probs\nout state a\n"
    )
    plan = compile_circuit(parse(text), **LOOSE)
    _compare(plan)


def test_ensemble_compaction_preserves_density_matrix():
    rng = np.random.default_rng(5)
    members = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    ens = Ensemble(("a",), (4,), members)
    before = ensemble_to_mixed(ens)
    ens.compact()
    assert ens.members.shape[0] == 4 and ens.members.shape[1] <= 4
    assert np.max(np.abs(ensemble_to_mixed(ens) - before)) < 1e-12


@pytest.mark.parametrize("first", ["coherent 0.7 0.2", "thermal 0.6"])
def test_vacuum_mode_is_attached_by_zero_padding(first):
    # the einsum outer product with the vacuum member, which the zero-pad replaced
    one = compile_circuit(parse(f"modes a\ninput a {first}\nout state a\n"), cutoff=7,
                          leak_budget=1.0)
    two = f"modes a b\ninput a {first}\ninput b vacuum\nout state a\nout state b\n"
    plan = compile_circuit(parse(two), cutoff=7, leak_budget=1.0)
    old = execute_plan(one).final_state.members
    vac = np.zeros((7, 1), dtype=np.complex128)
    vac[0, 0] = 1.0
    outer = np.einsum("nj,oi->noij", vac, old).reshape(7 * old.shape[0], -1)
    members = execute_plan(plan).final_state.members
    # both inputs are one vector: the coherent state, or the thermal input
    # collapsed by charge (its 7 Fock members differ in charge)
    assert old.shape[1] == 1
    assert members.shape == outer.shape and np.array_equal(members, outer)


def test_final_state_types():
    for text in (
        "modes a b\ninput a coherent 0.4 0.0\ninput b vacuum\nbs a b T=0.9\nout probs\n",
        "modes a b\ninput a thermal 0.4\ninput b vacuum\nbs a b T=0.9\nout probs\n",
    ):
        plan = compile_circuit(parse(text), **LOOSE)
        staged = execute_plan(plan).final_state
        brute = execute_plan_brute(plan).final_state
        assert isinstance(staged, Ensemble)
        assert staged.modes == ("a", "b") and len(brute) == 6**2
        assert np.max(np.abs(ensemble_to_mixed(staged) - to_mixed(brute))) < 1e-10


# (inputs, operations, charge signs or None, members K of the final ensemble);
# all at d=6, where a thermal input has 6 Fock members
CHARGE_CASES = {
    "fock": ("input a fock 2\ninput b vacuum\ninput c vacuum\n",
             "bs a b T=0.7\ntmsq a c s=0.2\nherald c exactly 1\n",
             {"a": 1, "b": 1, "c": -1}, 1),
    # product members |n, m> of charge n + m: at most 6 share a charge
    "two-thermal-bs": ("input a thermal 0.5\ninput b thermal 0.3\ninput c vacuum\n",
                       "bs a b T=0.6\nbs a c T=0.8\nherald c exactly 1\n",
                       {"a": 1, "b": 1, "c": 1}, 6),
    # charge n − m: again at most 6 share a charge (n = m)
    "two-thermal-tmsq": ("input a thermal 0.5\ninput b thermal 0.3\ninput c vacuum\n",
                         "tmsq a b s=0.2\nbs a c T=0.8\nherald c exactly 1\n",
                         {"a": 1, "b": -1, "c": 1}, 6),
    # the vacuum mode a is attached first, so the thermal input on b meets one
    # vector: packed by charge it stays one column (unpacked, 5 survive c's herald)
    "vacuum-first": ("input a vacuum\ninput b thermal 0.5\ninput c vacuum\n",
                     "bs a b T=0.6\nbs a c T=0.8\nherald c exactly 1\n",
                     {"a": 1, "b": 1, "c": 1}, 1),
    # not Fock-diagonal: the 6 thermal members times the one coherent vector
    "thermal-coherent": ("input a thermal 0.4\ninput b coherent 0.5 0.0\ninput c vacuum\n",
                         "bs a b T=0.7\nbs a c T=0.8\nherald c exactly 1\n",
                         None, 6),
    # tmsq asks for opposite signs on a and b, bs for equal ones
    "uncolourable": ("input a thermal 0.4\ninput b vacuum\ninput c vacuum\n",
                     "tmsq a b s=0.2\nbs a b T=0.7\nbs a c T=0.8\nherald c exactly 1\n",
                     None, 6),
}


@pytest.mark.parametrize("name", list(CHARGE_CASES))
def test_charge_collapse_matches_brute(name):
    inputs, ops, signs, members = CHARGE_CASES[name]
    text = f"modes a b c\n{inputs}{ops}out probs\nout state a\nout state b\n"
    plan = compile_circuit(parse(text), **LOOSE)
    assert plan.charge_signs == signs
    rs, rb = _compare(plan)
    staged = rs.final_state
    assert staged.members.shape[1] == members
    # the two live modes' joint state, dephased by charge when collapsed
    assert np.max(np.abs(ensemble_to_mixed(staged) - rb.final_state)) < 1e-10
    mb = output_value(rb, "state", "b")
    assert np.max(np.abs(output_value(rs, "state", "b") - mb)) < 1e-10


def test_fidelity_of_a_branch_with_coherences_takes_the_uhlmann_route(monkeypatch):
    # the coherent input on b leaves coherences on a, so a's fidelity with its
    # thermal input cannot be read from the two populations
    text = ("modes a b\ninput a thermal 1.0\ninput b coherent 0.8 0.0\nbs a b T=0.7\n"
            "herald b click onoff\nout probs\nout fidelity a input\nout state a\n")
    plan = compile_circuit(parse(text), cutoff=12, leak_budget=1.0)
    calls = []
    uhlmann = phasespace._uhlmann

    def counting(rho, sigma):
        calls.append((rho.shape, sigma.shape))
        return uhlmann(rho, sigma)

    monkeypatch.setattr(phasespace, "_uhlmann", counting)
    rs = execute_plan(plan)
    assert calls == [((12, 12), (12, 12))]
    rb = execute_plan_brute(plan)
    fs, fb = output_value(rs, "fidelity", "a"), output_value(rb, "fidelity", "a")
    assert 0.0 < fs < 1.0 and abs(fs - fb) <= 1e-10
    ms, mb = (output_value(r, "state", "a") for r in (rs, rb))
    assert np.max(np.abs(ms - mb)) <= 1e-10


@pytest.mark.parametrize("inp", ["coherent 0.8 0.0", "thermal 0.5"])
@pytest.mark.parametrize("herald", ["click eta=0", "exactly 1 eta=0", "click eta=0 onoff"])
def test_a_herald_that_cannot_fire_raises_in_both_executors(inp, herald):
    # E is zero on every level, so no member survives and the weight is 0
    text = (f"modes a b\ninput a {inp}\ninput b vacuum\nbs a b T=0.7\n"
            f"herald b {herald}\nout probs\n")
    plan = compile_circuit(parse(text), **LOOSE)
    for executor in (execute_plan, execute_plan_brute):
        with pytest.raises(ZeroProbabilityError, match="zero probability"):
            executor(plan)


def test_element_with_repeated_mode_is_rejected():
    spec = CircuitSpec(
        ("a", "b"),
        (InputStmt("a", "vacuum", ()), InputStmt("b", "vacuum", ())),
        (ElementStmt("bs", ("a", "a"), 0.5),),
        (OutputStmt("probs"),),
    )
    with pytest.raises(ValueError, match="modes must differ"):
        compile_circuit(spec, **LOOSE)


BS = ElementStmt("bs", ("a", "b"), 0.5)
CLICK_B = HeraldStmt("b", "click", None, 1.0, True)


@pytest.mark.parametrize("operations, outputs, message", [
    ((ElementStmt("bs", ("a", "q"), 0.5),), (), "mode 'q' is not declared"),
    ((BS, HeraldStmt("q", "click")), (), "mode 'q' is not declared"),
    ((BS,), (OutputStmt("state", "q"),), "mode 'q' is not declared"),
    ((BS, CLICK_B, BS), (OutputStmt("fidelity", "a"),), "mode 'b' was heralded and traced"),
    ((BS, CLICK_B, CLICK_B), (), "mode 'b' was heralded and traced"),
    ((BS, CLICK_B), (OutputStmt("fidelity", "b"),), "mode 'b' was heralded and traced"),
])
def test_compile_rejects_a_statement_on_an_undeclared_or_traced_mode(operations, outputs, message):
    # specs built in code get the parser's mode rules from the compiler, for both executors
    spec = CircuitSpec(
        ("a", "b"),
        (InputStmt("a", "coherent", (1.0, 0.0)), InputStmt("b", "vacuum", ())),
        operations,
        (OutputStmt("probs"),) + outputs,
    )
    with pytest.raises(ValueError, match=message):
        compile_circuit(spec, **LOOSE)


A_COHERENT, B_VACUUM = InputStmt("a", "coherent", (1.0, 0.0)), InputStmt("b", "vacuum", ())


@pytest.mark.parametrize("inputs, message", [
    ((A_COHERENT,), "mode 'b' has no input statement"),
    ((A_COHERENT, B_VACUUM, InputStmt("b", "thermal", (1.0,))), "mode 'b' already has an input"),
    ((A_COHERENT, B_VACUUM, InputStmt("q", "vacuum", ())), "mode 'q' is not declared"),
], ids=["missing-input", "duplicate-input", "undeclared-input"])
@pytest.mark.parametrize("executor", [execute_plan, execute_plan_brute], ids=["staged", "brute"])
def test_compile_gives_every_declared_mode_one_input(inputs, message, executor):
    # a spec built in code gets the parser's input rules from the compiler, so
    # neither executor meets it: a missing input raised a bare KeyError in the
    # staged one, a duplicate ran there against a ValueError in the brute one,
    # and an undeclared one was ignored by both
    spec = CircuitSpec(("a", "b"), inputs, (BS,), (OutputStmt("probs"), OutputStmt("fidelity", "a")))
    with pytest.raises(ValueError, match=message):
        executor(compile_circuit(spec, **LOOSE))


def test_unitary_cache_holds_one_run_and_rebuilds_nothing():
    params = SchemeParams(alpha=1.2, transmittivity=0.9, coupling=0.2)
    element_sectors.cache_clear()
    first = run_interferometer(params)
    info = element_sectors.cache_info()
    # the predicted cutoffs (a 14, b 9, c 8, d 7) pass on their first attempt,
    # which builds BS1 (14×9), the squeezer (14×7), BS2 (14×8) and BS3 (8×9):
    # BS1 and BS2 no longer share an entry, since b and c keep different
    # cutoffs.  Nothing evicted.
    assert info.currsize == info.misses == 4
    second = run_interferometer(params)
    assert element_sectors.cache_info().misses == info.misses
    for f in fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _rebuilt(sectors, d1, d2):
    """The dense d1·d2-square matrix of a stack of slots, with the layout checked.

    ``sectors`` is an ``(n, L)`` idx, L at most min(d1, d2), whose rows
    partition ``range(d1·d2)``, and an ``(n, L, L)`` stack of blocks, both
    read-only.
    """
    idx, blocks = sectors
    n, L = idx.shape
    assert L <= min(d1, d2)
    assert np.array_equal(np.sort(idx.ravel()), np.arange(d1 * d2))
    assert blocks.shape == (n, L, L) and blocks.dtype == np.float64
    assert not idx.flags.writeable and not blocks.flags.writeable
    out = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
    for row, block in zip(idx, blocks):
        out[np.ix_(row, row)] = block
    return out


def _built_unitary(kind, value, c):
    if kind == "bs":
        return beam_splitter_unitary(value, c)
    return two_mode_squeezer_unitary(value, c)


@pytest.mark.parametrize("kind, value", [("bs", 0.7), ("tmsq", 0.3)])
@pytest.mark.parametrize("d", [4, 7])
def test_cached_sectors_partition_and_rebuild_the_unitary(kind, value, d):
    u = _built_unitary(kind, value, d)
    assert np.array_equal(_rebuilt(element_sectors(kind, value, d, d), d, d), u)


@pytest.mark.parametrize("kind, value", [("bs", 0.7), ("tmsq", 0.3)])
@pytest.mark.parametrize("d", [4, 7])
def test_sector_application_matches_embedded_unitary(kind, value, d):
    u = _built_unitary(kind, value, d)
    sectors = element_sectors(kind, value, d, d)
    rng = np.random.default_rng(d)
    modes = ("a", "b", "c")
    members = rng.normal(size=(d**3, 3)) + 1j * rng.normal(size=(d**3, 3))
    # adjacent, non-adjacent and reversed pairs
    for op_modes in itertools.permutations(modes, 2):
        full = embed(u, op_modes, modes, d)
        for arr in (members, members[:, 0]):
            out = apply_matrix(arr, modes, (d,) * 3, sectors, op_modes)
            assert np.abs(out - full @ arr).max() <= 1e-13, op_modes


def _rectangular_ladders(d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """(a1, a2) on the d1×d2 pair space, pair index n1 + d1·n2."""
    def lower(d):
        return np.diag(np.sqrt(np.arange(1.0, d)), 1)
    return np.kron(np.eye(d2), lower(d1)), np.kron(lower(d2), np.eye(d1))


@pytest.mark.parametrize("d1, d2", [(6, 3), (3, 6), (9, 4), (4, 9), (2, 7)])
def test_rectangular_sectors_match_dense_expm(d1, d2):
    a1, a2 = _rectangular_ladders(d1, d2)
    generators = {
        "bs": lambda T: math.acos(math.sqrt(T)) * (a2.T @ a1 - a1.T @ a2),
        "tmsq": lambda s: s * (a2 @ a1 - a1.T @ a2.T),
    }
    for kind, values in (("bs", (0.5, 0.9, 1.0)), ("tmsq", (0.05, 0.3, 0.9))):
        for value in values:
            rebuilt = _rebuilt(element_sectors(kind, value, d1, d2), d1, d2)
            dense = expm(generators[kind](value).astype(np.complex128))
            assert np.abs(rebuilt - dense).max() <= 1e-13, (kind, value)


def test_leak_monitor_matches_population_formula():
    dims, K = (5, 3, 4), 5
    modes = ("a", "b", "c")
    rng = np.random.default_rng(17)
    members = rng.normal(size=(60, K)) + 1j * rng.normal(size=(60, K))
    ens = Ensemble(modes, dims, members)
    pops = np.sum(members.real**2 + members.imag**2, axis=1)
    total = float(np.sum(pops))
    assert ens.weight == pytest.approx(total, rel=1e-14)
    t = pops.reshape(dims[::-1])
    weight, leaks = ens.top_level_population()
    assert weight == ens.weight
    for j, mode in enumerate(modes):
        expected = float(np.sum(np.take(t, dims[j] - 1, axis=2 - j))) / total
        assert leaks[mode] == pytest.approx(expected, rel=1e-14), mode


@pytest.mark.parametrize(
    "pd0", [{}, {"pd0_onoff": True, "eta_pd0": 0.8}], ids=["number-resolving", "onoff"]
)
@pytest.mark.parametrize("branch", ["pd2", "pd1"])
def test_fig1_branch_with_thermal_input_matches_brute(branch, pd0):
    params = SchemeParams(input_kind="thermal", nbar=0.4, cutoff=6, leak_budget=1.0, **pd0)
    plan = compile_circuit(fig1_branch_circuit(params, branch), cutoff=params.cutoff,
                           leak_budget=params.leak_budget)
    rs, _ = _compare(plan)
    # the thermal input rides as one vector; K>1 comes from the levels the
    # heralds keep (c's click, and d's on-off click), so the collapsed
    # ensemble is still mixed
    assert plan.charge_signs == {"a": 1, "b": 1, "c": 1, "d": -1}
    assert rs.final_state.members.shape[1] > 1


def test_brute_oracle_does_not_run_the_staged_kernel(monkeypatch):
    # the oracle applies dense operators by its own contraction, so a fault in
    # the staged engine's apply_matrix cannot hide in both executors at once
    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force executor called core.apply_matrix")

    monkeypatch.setattr(core, "apply_matrix", refuse)
    params = SchemeParams(alpha=0.5)
    for branch in ("pd2", "pd1"):
        _compare(compile_circuit(fig1_branch_circuit(params, branch), **LOOSE))
