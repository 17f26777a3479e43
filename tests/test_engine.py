import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from qocsim.core import Cutoff, MixedState, apply_matrix, embed, to_mixed
from qocsim.dsl import (
    CircuitSpec,
    CutoffPolicy,
    ElementStmt,
    HeraldStmt,
    InputStmt,
    OutputStmt,
    compile_circuit,
    parse,
)
from qocsim.elements import (
    BeamSplitterParams,
    SqueezerParams,
    beam_splitter_unitary,
    two_mode_squeezer_unitary,
)
from qocsim.engine import (
    Ensemble,
    LeakBudgetError,
    _unitary_matrix_cached,
    execute_plan,
    execute_plan_brute,
)
from qocsim.measurement import ZeroProbabilityError
from qocsim.scheme import SchemeParams, build_fig1_circuit, run_interferometer

LOOSE = CutoffPolicy(explicit=6, leak_budget=1.0)


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
    ms = rs.output_value("state", mode).matrix
    mb = rb.output_value("state", mode).matrix
    assert np.max(np.abs(ms - mb)) < tol
    return rs, rb


def test_staged_equals_brute_on_randomized_circuits():
    rng = np.random.default_rng(2024)
    built = 0
    while built < 10:
        spec = _random_circuit(rng, n_heralds=int(rng.integers(1, 3)))
        plan = compile_circuit(spec, LOOSE)
        try:
            _compare(plan)
        except ZeroProbabilityError:
            continue  # a herald this circuit cannot satisfy; draw another
        built += 1


def test_plan_execution_deterministic():
    text = (
        "modes a b\ninput a coherent 0.5 0.0\ninput b vacuum\n"
        "bs a b T=0.9\nherald b click onoff\nout probs\nout state a\n"
    )
    plan = compile_circuit(parse(text), LOOSE)
    r1 = execute_plan(plan)
    r2 = execute_plan(plan)
    assert r1.joint_probability == r2.joint_probability
    assert np.array_equal(
        r1.output_value("state", "a").matrix, r2.output_value("state", "a").matrix
    )


def test_leak_budget_raises_with_diagnostic():
    text = "modes a\ninput a coherent 1.0 0.0\nout state a\n"
    plan = compile_circuit(parse(text), CutoffPolicy(explicit=4, leak_budget=1e-6))
    with pytest.raises(LeakBudgetError) as exc:
        execute_plan(plan)
    assert exc.value.cutoff == 4
    assert "increase the cutoff" in str(exc.value)


def test_adaptive_cutoff_doubles_once_on_leak():
    # a policy-compiled plan whose cutoff is lowered below the budget stands
    # for a misprediction: it is retried once at twice that cutoff
    text = "modes a\ninput a thermal 1.0\nout state a\n"
    plan = compile_circuit(parse(text), CutoffPolicy(leak_budget=1e-6))
    assert execute_plan(plan).cutoff == plan.cutoff
    low = replace(plan, cutoff=plan.cutoff - 4)
    assert execute_plan(low).cutoff == 2 * low.cutoff
    with pytest.raises(LeakBudgetError):  # an explicit cutoff is never retried
        execute_plan(replace(low, may_double=False))


def test_zero_probability_herald_raises():
    text = (
        "modes a b\ninput a vacuum\ninput b vacuum\n"
        "bs a b T=0.9\nherald b exactly 3\nout state a\n"
    )
    plan = compile_circuit(parse(text), LOOSE)
    with pytest.raises(ZeroProbabilityError):
        execute_plan(plan)


def test_mixed_input_with_inefficient_heralds_matches_brute():
    text = (
        "modes a b c\ninput a thermal 0.6\ninput b vacuum\ninput c vacuum\n"
        "bs a b T=0.8\ntmsq a c s=0.15\n"
        "herald b click eta=0.55 onoff\nherald c exactly 1\n"
        "out probs\nout state a\n"
    )
    plan = compile_circuit(parse(text), LOOSE)
    _compare(plan)


def test_ensemble_compaction_preserves_density_matrix():
    rng = np.random.default_rng(5)
    from qocsim.core import Cutoff

    c = Cutoff(4)
    members = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    ens = Ensemble(("a",), c, members)
    before = ens.to_mixed().matrix
    ens.compact()
    assert ens.members.shape[0] == 4 and ens.members.shape[1] <= 4
    assert np.max(np.abs(ens.to_mixed().matrix - before)) < 1e-12


@pytest.mark.parametrize("first", ["coherent 0.7 0.2", "thermal 0.6"])
def test_vacuum_mode_is_attached_by_zero_padding(first):
    # the einsum outer product with the vacuum member, which the zero-pad replaced
    policy = CutoffPolicy(explicit=7, leak_budget=1.0)
    one = compile_circuit(parse(f"modes a\ninput a {first}\nout state a\n"), policy)
    two = f"modes a b\ninput a {first}\ninput b vacuum\nout state a\nout state b\n"
    plan = compile_circuit(parse(two), policy)
    old = execute_plan(one).final_state.members
    vac = np.zeros((7, 1), dtype=np.complex128)
    vac[0, 0] = 1.0
    outer = np.einsum("nj,oi->noij", vac, old).reshape(7 * old.shape[0], -1)
    members = execute_plan(plan).final_state.members
    assert old.shape[1] == (1 if first.startswith("coherent") else 7)
    assert members.shape == outer.shape and np.array_equal(members, outer)


def test_final_state_types():
    for text in (
        "modes a b\ninput a coherent 0.4 0.0\ninput b vacuum\nbs a b T=0.9\nout probs\n",
        "modes a b\ninput a thermal 0.4\ninput b vacuum\nbs a b T=0.9\nout probs\n",
    ):
        plan = compile_circuit(parse(text), LOOSE)
        staged = execute_plan(plan).final_state
        brute = execute_plan_brute(plan).final_state
        assert isinstance(staged, Ensemble)
        assert staged.modes == brute.modes
        assert np.max(np.abs(staged.to_mixed().matrix - to_mixed(brute).matrix)) < 1e-10


def test_element_with_repeated_mode_is_rejected():
    spec = CircuitSpec(
        ("a", "b"),
        (InputStmt("a", "vacuum", ()), InputStmt("b", "vacuum", ())),
        (ElementStmt("bs", ("a", "a"), 0.5),),
        (OutputStmt("probs"),),
    )
    plan = compile_circuit(spec, LOOSE)
    for executor in (execute_plan, execute_plan_brute):
        with pytest.raises(ValueError, match="modes must differ"):
            executor(plan)


def test_unitary_cache_holds_one_run_and_rebuilds_nothing():
    params = SchemeParams(alpha=1.2, transmittivity=0.9, coupling=0.2)
    _unitary_matrix_cached.cache_clear()
    first = run_interferometer(params)
    info = _unitary_matrix_cached.cache_info()
    # the predicted cutoff passes on its first attempt, which builds (bs 0.9,
    # tmsq 0.2, bs 0.5), BS1 and BS2 sharing one entry.  Nothing evicted.
    assert info.currsize == info.misses == 3
    second = run_interferometer(params)
    assert _unitary_matrix_cached.cache_info().misses == info.misses
    for f in fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        if isinstance(a, MixedState):
            assert np.array_equal(a.matrix, b.matrix) and a.trace_tag == b.trace_tag, f.name
        else:
            assert a == b, f.name


def _built_unitary(kind, value, c):
    if kind == "bs":
        return beam_splitter_unitary(BeamSplitterParams(value, ("x", "y")), c)
    return two_mode_squeezer_unitary(SqueezerParams(value, ("x", "y")), c)


@pytest.mark.parametrize("kind, value", [("bs", 0.7), ("tmsq", 0.3)])
@pytest.mark.parametrize("d", [4, 7])
def test_cached_sectors_partition_and_rebuild_the_unitary(kind, value, d):
    u = _built_unitary(kind, value, Cutoff(d)).matrix
    sectors = _unitary_matrix_cached(kind, value, d)
    idx_all = np.concatenate([idx for idx, _ in sectors])
    assert np.array_equal(np.sort(idx_all), np.arange(d * d))
    rebuilt = np.zeros_like(u)
    for idx, block in sectors:
        assert block.shape == (idx.size, idx.size) and idx.size <= d
        rebuilt[np.ix_(idx, idx)] = block
    assert np.array_equal(rebuilt, u)


@pytest.mark.parametrize("kind, value", [("bs", 0.7), ("tmsq", 0.3)])
@pytest.mark.parametrize("d", [4, 7])
def test_sector_application_matches_embedded_unitary(kind, value, d):
    c = Cutoff(d)
    u = _built_unitary(kind, value, c)
    sectors = _unitary_matrix_cached(kind, value, d)
    rng = np.random.default_rng(d)
    modes = ("a", "b", "c")
    members = rng.normal(size=(d**3, 3)) + 1j * rng.normal(size=(d**3, 3))
    # adjacent, non-adjacent and reversed pairs
    for op_modes in itertools.permutations(modes, 2):
        full = embed(u.bound_to(op_modes), op_modes, modes, c).matrix
        for arr in (members, members[:, 0]):
            out = apply_matrix(arr, modes, c, sectors, op_modes)
            assert np.abs(out - full @ arr).max() <= 1e-13, op_modes


def test_leak_monitor_matches_population_formula():
    d, K = 5, 5
    modes = ("a", "b", "c")
    rng = np.random.default_rng(17)
    members = rng.normal(size=(d**3, K)) + 1j * rng.normal(size=(d**3, K))
    ens = Ensemble(modes, Cutoff(d), members)
    pops = np.sum(members.real**2 + members.imag**2, axis=1)
    total = float(np.sum(pops))
    assert ens.weight == pytest.approx(total, rel=1e-14)
    t = pops.reshape((d,) * 3)
    leaks = ens.top_level_population()
    for j, mode in enumerate(modes):
        expected = float(np.sum(np.take(t, d - 1, axis=2 - j))) / total
        assert leaks[mode] == pytest.approx(expected, rel=1e-14), mode


@pytest.mark.parametrize(
    "pd0", [{}, {"pd0_onoff": True, "eta_pd0": 0.8}], ids=["number-resolving", "onoff"]
)
@pytest.mark.parametrize("branch", ["pd2", "pd1"])
def test_fig1_branch_with_thermal_input_matches_brute(branch, pd0):
    params = SchemeParams(input_kind="thermal", nbar=0.4, cutoff=6, leak_budget=1.0, **pd0)
    plan = compile_circuit(build_fig1_circuit(params, branch), params.policy())
    rs, _ = _compare(plan)
    assert rs.final_state.members.shape[1] > 1  # the mixed (K>1) path
