"""run_interferometer against the three-execution path and the shipped circuit file."""

import json
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qocsim import engine, measurement, phasespace, scheme
from qocsim.dsl import CutoffCeilingError, compile_circuit, parse
from qocsim.engine import LeakBudgetError, execute_plan, input_state
from qocsim.measurement import ZeroProbabilityError
from qocsim.phasespace import fidelity, wigner
from qocsim.scheme import (
    SchemeParams,
    SchemeResult,
    branch_wigner,
    build_fig1_circuit,
    run_interferometer,
)
from reference import normalized_branch, output_value, pattern_probability

TOL = 1e-12
POLICY_TABLE = Path(__file__).parent / "data" / "policy_cutoffs.json"
OUTPUT_TABLE = Path(__file__).parent / "data" / "scheme_outputs.json"


def _predicted(params: SchemeParams) -> dict[str, int]:
    """Each mode's cutoff: the larger of the pd2 and pd1 circuits' predictions."""
    pd2, pd1 = (_compiled(params, build_fig1_circuit(params, b)).cutoffs for b in ("pd2", "pd1"))
    return {m: max(pd2[m], pd1[m]) for m in pd2}


def _compiled(params: SchemeParams, spec, branches=()):
    """The plan of ``spec`` at the cutoff and leak budget of ``params``."""
    return compile_circuit(spec, branches=branches, cutoff=params.cutoff,
                           leak_budget=params.leak_budget)


def _tails(params: SchemeParams) -> tuple:
    """The pd2 and pd1 circuits' operations after the shared prefix."""
    n = len(build_fig1_circuit(params, "none").operations)
    return tuple(build_fig1_circuit(params, b).operations[n:] for b in ("pd2", "pd1"))


def _pinned(params: SchemeParams, branch: str, cutoffs: dict[str, int], may_double=False):
    """The branch circuit's plan with its per-mode cutoffs replaced by ``cutoffs``."""
    plan = _compiled(params, build_fig1_circuit(params, branch))
    return replace(plan, cutoffs=cutoffs, may_double=may_double)


def _clicks(params: SchemeParams) -> tuple[tuple, tuple]:
    """The herald fields of an on-off click at PD1 (mode b) and at PD2 (mode c)."""
    return ("click", None, params.eta_pd1, True), ("click", None, params.eta_pd2, True)


def _three_execution_oracle(params: SchemeParams) -> SchemeResult:
    """One execution per circuit: pd2 at the predicted cutoffs, pd1 and none pinned to its."""
    res_pd2 = execute_plan(_pinned(params, "pd2", _predicted(params), params.cutoff is None))
    res_pd1 = execute_plan(_pinned(params, "pd1", res_pd2.cutoffs))
    res_pre = execute_plan(_pinned(params, "none", res_pd2.cutoffs))

    cutoff = res_pd2.cutoffs["a"]
    w_pd2 = float(np.prod([h.probability for h in res_pd2.heralds[1:]]))
    w_pd1 = float(np.prod([h.probability for h in res_pd1.heralds[1:]]))

    rho_pd2 = output_value(res_pd2, "state", "a") * w_pd2
    rho_pd1 = output_value(res_pd1, "state", "a") * w_pd1
    post = res_pre.final_state  # up to 40**3 dimensions: never densified
    b, c = _clicks(params)
    w = post.weight
    p_b = pattern_probability(post, {"b": b}) / w
    p_c = pattern_probability(post, {"c": c}) / w
    p_bc = pattern_probability(post, {"b": b, "c": c}) / w
    input_ref = input_state(params.input_stmt(), cutoff)
    attenuated = replace(params, alpha=params.t * params.alpha,
                         nbar=params.transmittivity**2 * params.nbar)
    return SchemeResult(
        params=params,
        cutoff=res_pd2.cutoff,
        pd0_probability=res_pd2.heralds[0].probability,
        pd1_branch=rho_pd1,
        pd2_branch=rho_pd2,
        pd1_weight=w_pd1,
        pd2_weight=w_pd2,
        p_b=p_b,
        p_c=p_c,
        p_bc=p_bc,
        p_bc_given_b=p_bc / p_b,
        p_bc_given_c=p_bc / p_c,
        fidelity_pd2_vs_input=fidelity(input_ref, rho_pd2),
        fidelity_pd2_vs_attenuated=fidelity(input_state(attenuated.input_stmt(), cutoff), rho_pd2),
        fidelity_pd1_vs_input=fidelity(input_ref, rho_pd1),
        leak_max=max(res_pd2.leak_max, res_pd1.leak_max, res_pre.leak_max),
    )


CASES = {
    "alpha1": SchemeParams(alpha=1.0),
    "alpha2-branch-retry": SchemeParams(alpha=2.0, transmittivity=0.99, coupling=0.05),
    "thermal": SchemeParams(input_kind="thermal", nbar=0.5),
    "lossy-pd1-pd2": SchemeParams(alpha=1.0, eta_pd1=0.6, eta_pd2=0.6),
    "onoff-pd0": SchemeParams(alpha=1.0, pd0_onoff=True, eta_pd0=0.5),
    "swapped-bs3": SchemeParams(alpha=1.0, swap_bs3_sign=True),
    # diagonal branches, whose fidelities the run reads off their populations
    "fock2": SchemeParams(input_kind="fock", fock_n=2),
    "thermal-lossy-pd1-pd2": SchemeParams(input_kind="thermal", nbar=1.0, eta_pd1=0.6, eta_pd2=0.6),
    "thermal-onoff-pd0": SchemeParams(input_kind="thermal", nbar=0.6, pd0_onoff=True, eta_pd0=0.8),
}


@pytest.mark.parametrize("name", list(CASES))
def test_one_execution_matches_three_execution_oracle(name):
    params = CASES[name]
    got = run_interferometer(params)
    want = _three_execution_oracle(params)
    assert got.params == want.params
    assert got.cutoff == want.cutoff
    assert got.leak_max == want.leak_max
    for f in fields(SchemeResult):
        if f.name in ("params", "cutoff", "leak_max"):
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape == (want.cutoff, want.cutoff), f.name
            assert np.max(np.abs(a - b)) <= TOL, f.name
        else:
            assert abs(a - b) <= TOL, f.name


@pytest.mark.parametrize("name", ["alpha1", "thermal", "fock2", "thermal-lossy-pd1-pd2",
                                  "thermal-onoff-pd0"])
def test_the_fidelity_kernels_agree_with_the_public_fidelity(name):
    # the run calls phasespace's unchecked kernels on its references' own numbers:
    # a coherent input's ket, and a thermal or Fock input's populations against the
    # diagonal branch; the public fidelity takes the dense reference
    params = CASES[name]
    res = run_interferometer(params)
    ref = input_state(params.input_stmt(), res.cutoff)
    pops = np.abs(ref) ** 2 if ref.ndim == 1 else ref.diagonal().real
    for rho, got in ((res.pd2_branch, res.fidelity_pd2_vs_input),
                     (res.pd1_branch, res.fidelity_pd1_vs_input)):
        want = fidelity(ref, rho)
        kernels = [phasespace._pure_fidelity(ref, rho)] if ref.ndim == 1 else []
        if params.input_kind != "coherent":
            assert np.count_nonzero(rho) == np.count_nonzero(rho.diagonal())
            kernels.append(phasespace._population_fidelity(pops, rho.diagonal().real))
        for value in (got, *kernels):
            assert abs(value - want) <= 1e-15, (name, value, want)


@pytest.mark.parametrize("params", [SchemeParams(alpha=1.0),
                                    SchemeParams(input_kind="thermal", nbar=0.95)],
                         ids=["coherent", "thermal"])
def test_a_fig1_run_reads_each_ensemble_weight_once(params, monkeypatch):
    # each herald takes its `before` from the leak check that preceded it on the
    # same members: 13 checks, 5 herald `after`s and the click statistics' total
    calls = []
    weight = engine.Ensemble.weight

    def counting(ens):
        calls.append(ens.modes)
        return weight.fget(ens)

    monkeypatch.setattr(engine.Ensemble, "weight", property(counting))
    run_interferometer(params)
    assert len(calls) == 19


def test_branch_stage_leak_doubles_the_cutoff():
    # with mode a lowered to d=20, the predicted per-mode plan of the prefix
    # passes every stage up to BS3 but leaks past the budget at the PD2
    # branch's `herald c`; the retry must cover the branch stages and double
    # every mode
    params = CASES["alpha2-branch-retry"]
    tails = _tails(params)
    predicted = _predicted(params)
    low = _pinned(params, "none", {**predicted, "a": 20}, may_double=True)
    assert execute_plan(low).cutoffs == low.cutoffs
    with pytest.raises(LeakBudgetError) as exc:
        execute_plan(replace(low, may_double=False, branches=tails))
    assert exc.value.stage == "herald c" and exc.value.cutoffs == low.cutoffs
    doubled = execute_plan(replace(low, branches=tails)).cutoffs
    assert doubled == {m: 2 * d for m, d in low.cutoffs.items()}
    assert run_interferometer(params).cutoff == predicted["a"] == max(predicted.values())


@pytest.mark.parametrize("params", [
    SchemeParams(alpha=1.57, transmittivity=0.86, coupling=0.29),
    SchemeParams(alpha=1.25, transmittivity=0.98, coupling=0.06),
    # d=17 leaks 1.0e-6 at d=16: the tap factor and the heralded boost both bind
    SchemeParams(alpha=1.5408, transmittivity=0.92397, coupling=0.19563),
    SchemeParams(alpha=0.45, transmittivity=0.99, coupling=0.1),
    # the unheralded squeezer stage binds, at the top of its truncated chains
    SchemeParams(alpha=0.5, transmittivity=0.99, coupling=0.9),
    SchemeParams(input_kind="thermal", nbar=0.95),
    # an on-off PD0 click may stand for any idler count; these leaked up to
    # 7e-6 at `herald d` when counts stopped at four photons, missed the
    # signal's stimulated emission, and were checked one by one (the last
    # leaks 1.8e-6 at a=8 unless the counts' leaks are summed)
    SchemeParams(input_kind="fock", fock_n=4, transmittivity=0.985, coupling=0.153,
                 eta_pd0=0.95, pd0_onoff=True),
    SchemeParams(alpha=0.214, transmittivity=0.849, coupling=0.384, pd0_onoff=True),
    SchemeParams(alpha=0.278, transmittivity=0.942, coupling=0.226, eta_pd0=0.67, pd0_onoff=True),
    SchemeParams(alpha=0.478, transmittivity=0.953, coupling=0.112, eta_pd0=0.98, pd0_onoff=True),
], ids=["coherent-strong-taps", "coherent-weak-taps", "coherent-edge", "coherent-small",
        "strong-squeezer", "thermal", "onoff-fock", "onoff-coherent", "onoff-coherent-lossy",
        "onoff-coherent-summed"])
@pytest.mark.filterwarnings("ignore:cutoff d=")
def test_predicted_cutoff_passes_first_and_is_near_the_smallest(params, monkeypatch):
    attempts = []
    staged = engine._execute_staged

    def counting(plan, d):
        attempts.append(d)
        return staged(plan, d)

    monkeypatch.setattr(engine, "_execute_staged", counting)
    cutoffs = _predicted(params)
    d = cutoffs["a"]
    res = run_interferometer(params)
    assert attempts == [cutoffs] and res.cutoff == d and res.leak_max <= params.leak_budget
    # within three levels of the smallest cutoff that passes
    with pytest.raises(LeakBudgetError):
        run_interferometer(replace(params, cutoff=d - 4))


def test_thermal_nbar2_runs_within_budget_at_default_settings():
    params = SchemeParams(input_kind="thermal", nbar=2.0)
    res = run_interferometer(params)
    assert res.cutoff == max(_predicted(params).values()) <= 56
    assert res.leak_max <= params.leak_budget
    assert 0.0 < res.pd2_weight < res.pd1_weight


def test_click_statistics_match_three_pattern_probabilities():
    for params in (CASES["thermal"], CASES["lossy-pd1-pd2"]):
        res = run_interferometer(params)
        cutoffs = _predicted(params)
        assert res.cutoff == cutoffs["a"]
        post = execute_plan(_pinned(params, "none", cutoffs)).final_state
        b, c = _clicks(params)
        w = post.weight
        for name, pattern in (("p_b", {"b": b}), ("p_c", {"c": c}),
                              ("p_bc", {"b": b, "c": c})):
            want = pattern_probability(post, pattern) / w
            assert abs(getattr(res, name) - want) <= 1e-14 * want, name


@pytest.mark.parametrize(
    "bad",
    [{"cutoff": 1}, {"nbar": -1.0}, {"fock_n": -1}, {"leak_budget": 0.0},
     {"leak_budget": -1e-6}, {"leak_budget": float("nan")}, {"alpha": float("nan")},
     {"alpha": complex(1.0, float("nan"))}, {"alpha": complex(float("inf"), 0.0)},
     {"coupling": float("nan")}, {"coupling": float("inf")}, {"nbar": float("inf")},
     {"leak_budget": float("inf")}, {"input_kind": "fock", "fock_n": 8, "cutoff": 8},
     {"input_kind": "fock", "fock_n": 20, "cutoff": 8}, {"input_kind": "fock", "fock_n": 1.5},
     {"input_kind": "fock", "fock_n": float("inf")}, {"input_kind": "fock", "fock_n": 10**400}],
    ids=["cutoff-1", "negative-nbar", "negative-fock", "zero-budget", "negative-budget",
         "nan-budget", "nan-alpha", "nan-alpha-imag", "inf-alpha", "nan-coupling",
         "inf-coupling", "inf-nbar", "inf-budget", "fock-at-cutoff", "fock-above-cutoff",
         "fractional-fock", "inf-fock", "fock-too-large-for-a-float"],
)
def test_params_reject_values_the_policy_cannot_use(bad):
    with pytest.raises(ValueError):
        SchemeParams(**bad)


def test_an_integral_fock_level_of_any_type_runs_as_that_level():
    # the engine and the policy read the level through int(): 1.5 would run as 1
    want = run_interferometer(SchemeParams(input_kind="fock", fock_n=1))
    for level in (np.int64(1), 1.0):
        got = run_interferometer(SchemeParams(input_kind="fock", fock_n=level))
        assert got.pd0_probability == want.pd0_probability
        assert np.array_equal(got.pd2_branch, want.pd2_branch)


def test_interferometer_executes_one_plan(monkeypatch):
    calls = []

    def counting(plan, **kwargs):
        calls.append(plan)
        return execute_plan(plan, **kwargs)

    monkeypatch.setattr(scheme, "execute_plan", counting)
    run_interferometer(SchemeParams(input_kind="thermal", nbar=0.5))
    assert len(calls) == 1


def test_fig1_circuit_file_agrees_with_run_interferometer():
    # both run at run_interferometer's per-mode cutoffs
    params = SchemeParams(alpha=1.0)
    plan = compile_circuit(parse(resources.files("qocsim").joinpath("circuits/fig1.qoc").read_text()))
    res = execute_plan(replace(plan, cutoffs=_predicted(params)))
    sch = run_interferometer(params)
    assert res.cutoff == sch.cutoff
    assert abs(res.heralds[0].probability - sch.pd0_probability) <= TOL
    rest = float(np.prod([h.probability for h in res.heralds[1:]]))
    assert abs(rest - sch.pd2_weight) <= TOL
    assert abs(output_value(res, "fidelity", "a") - sch.fidelity_pd2_vs_input) <= TOL
    state = output_value(res, "state", "a")
    assert np.max(np.abs(state - normalized_branch(sch, "pd2"))) <= TOL


@pytest.mark.parametrize("name", ["alpha1", "thermal"])
def test_branch_wigner_is_the_normalized_branch_grid(name):
    # branch_wigner hands wigner the stored, unnormalised branch state
    res = run_interferometer(CASES[name])
    for which in ("pd1", "pd2"):
        got = branch_wigner(res, which).values
        want = wigner(normalized_branch(res, which)).values
        assert np.max(np.abs(got - want)) <= 1e-15, which


@pytest.mark.filterwarnings("ignore:cutoff d=", "ignore::RuntimeWarning")
@pytest.mark.parametrize("kw, error", [
    ({"eta_pd1": 0.0}, ZeroProbabilityError),
    ({"eta_pd2": 0.0}, ZeroProbabilityError),
    ({"eta_pd0": 0.0, "pd0_onoff": True}, ZeroProbabilityError),
    ({"alpha": 40.0, "cutoff": 10}, LeakBudgetError),
    ({"alpha": 1e200, "cutoff": 10}, LeakBudgetError),
    ({"alpha": 1e154}, CutoffCeilingError),
    ({"alpha": 1e308}, CutoffCeilingError),
    ({"coupling": 711.0}, CutoffCeilingError),
], ids=["eta-pd1", "eta-pd2", "eta-pd0-onoff", "alpha40-d10", "alpha1e200-d10", "alpha1e154",
        "alpha1e308", "s711"])
def test_degenerate_inputs_raise_a_typed_failure(kw, error):
    # a detector that cannot fire, a coherent state wholly above its cutoff
    # (its kept amplitudes all underflow), or a tail past the float range
    with pytest.raises(error):
        run_interferometer(SchemeParams(**kw))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kw", [{"alpha": 1e154}, {"alpha": 1e160}, {"coupling": 355.0},
                                {"coupling": 400.0}], ids=["alpha1e154", "alpha1e160", "s355", "s400"])
def test_tails_past_the_float_range_fail_typed_without_a_numpy_warning(kw):
    # the tail model's overflow leaves a non-finite row, which the cutoff
    # search refuses; numpy must not print a RuntimeWarning on the way
    with pytest.raises(CutoffCeilingError):
        run_interferometer(SchemeParams(**kw))


def test_an_unknown_branch_name_is_rejected():
    res = run_interferometer(CASES["alpha1"])
    for which in ("PD2", "pd3", "none", ""):
        with pytest.raises(ValueError, match="unknown branch"):
            branch_wigner(res, which)


def test_heralds_build_no_dense_povm_element(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a herald built a dense POVM element")

    monkeypatch.setattr(measurement, "povm_element", dense)
    lossy = {"eta_pd0": 0.7, "eta_pd1": 0.8, "eta_pd2": 0.9}
    for inp in ({"alpha": 1.0}, {"input_kind": "thermal", "nbar": 0.9}):
        for onoff in (False, True):
            res = run_interferometer(SchemeParams(**inp, **lossy, pd0_onoff=onoff))
            assert 0.0 < res.p_bc < min(res.p_b, res.p_c)
    params = SchemeParams(alpha=0.5, **lossy, cutoff=6)
    plan = _compiled(params, build_fig1_circuit(params))
    assert len(engine.execute_plan_brute(plan).heralds) == 3


# leak-checked stages in one Fig. 1 execution (4 prepares, 4 unitaries, 3 heralds)
LEAK_STAGES = 11
GENEROUS = {
    "thermal": (SchemeParams(input_kind="thermal", nbar=0.95), 40),
    "coherent": (SchemeParams(alpha=1.4, transmittivity=0.9, coupling=0.2), 40),
    # at d=40 this case would hold 40·39 members on a 40³ space (1.6 GB); every
    # mode's tail at d=26 is far below the budget
    "thermal-onoff-pd0": (
        SchemeParams(input_kind="thermal", nbar=0.6, pd0_onoff=True, eta_pd0=0.8), 26
    ),
    "swapped-bs3": (SchemeParams(alpha=1.0, swap_bs3_sign=True), 40),
}


@pytest.mark.parametrize("name", list(GENEROUS))
def test_per_mode_cutoffs_match_a_generous_uniform_cutoff(name):
    # each mode's leak is within the budget at every stage, so a branch of
    # weight w moves by at most LEAK_STAGES·budget/w: relative for
    # probabilities, absolute for fidelities and the normalised branch states
    params, d = GENEROUS[name]
    got = run_interferometer(params)
    want = run_interferometer(replace(params, cutoff=d))
    assert got.cutoff == _predicted(params)["a"] < d
    assert got.leak_max <= params.leak_budget and want.leak_max <= params.leak_budget
    tol = LEAK_STAGES * params.leak_budget / min(want.pd1_weight, want.pd2_weight)
    for f in fields(SchemeResult):
        if f.name in ("params", "cutoff", "leak_max"):
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            rho = normalized_branch(got, f.name[:3])
            ref = normalized_branch(want, f.name[:3])
            padded = np.zeros_like(ref)
            padded[: rho.shape[0], : rho.shape[0]] = rho
            assert np.abs(padded - ref).max() <= tol, f.name
        elif f.name.startswith("fidelity"):
            assert abs(a - b) <= tol, f.name
        else:
            assert abs(a - b) <= tol * abs(b), f.name


@pytest.mark.parametrize("pd0", [{"pd0_onoff": True}, {}], ids=["onoff", "number-resolving"])
def test_inefficient_pd0_keeps_few_members(pd0, monkeypatch):
    # the PD0 herald keeps every idler level n >= 1, one member per level and
    # incoming member, so the idler's own small cutoff bounds the growth; the
    # thermal input arrives as one member, its Fock members collapsed by charge
    seen = []
    condition = engine.Ensemble.condition

    def recording(ens, mode, diag):
        out = condition(ens, mode, diag)
        d = ens.dims[ens.modes.index(mode)]
        seen.append((mode, d, ens.members.shape[1], out.members.shape[1]))
        return out

    monkeypatch.setattr(engine.Ensemble, "condition", recording)
    params = SchemeParams(input_kind="thermal", nbar=0.6, eta_pd0=0.8, **pd0)
    run_interferometer(params)
    mode, d_d, k_in, k_out = seen[0]
    assert mode == "d" and k_in == 1
    assert k_out <= (d_d - 1) * k_in and d_d <= 6


def _random_params(rng: np.random.Generator) -> SchemeParams:
    def eta() -> float:
        return 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 1.0))

    return SchemeParams(
        input_kind=str(rng.choice(["coherent", "thermal", "fock"])),
        alpha=complex(rng.uniform(0.0, 2.0), rng.uniform(-0.5, 0.5)),
        nbar=float(rng.uniform(0.05, 1.5)),
        fock_n=int(rng.integers(0, 4)),
        transmittivity=float(rng.uniform(0.8, 0.995)),
        coupling=float(rng.uniform(0.02, 0.4)),
        eta_pd0=eta(),
        eta_pd1=eta(),
        eta_pd2=eta(),
        pd0_onoff=bool(rng.random() < 0.5),
        leak_budget=float(10.0 ** rng.uniform(-8.0, -5.0)),
        swap_bs3_sign=bool(rng.random() < 0.5),
    )


def test_forked_choose_matches_the_two_circuit_max():
    # the prefix walked once and forked into both tails sizes every mode as
    # the larger of the two full branch circuits' predictions
    rng = np.random.default_rng(20090116)
    kinds = set()
    for _ in range(300):
        params = _random_params(rng)
        prefix = build_fig1_circuit(params, "none")
        plan = _compiled(params, prefix, _tails(params))
        assert plan.cutoffs == _predicted(params) and plan.may_double, params
        kinds.add((params.input_kind, params.pd0_onoff, params.swap_bs3_sign))
    assert len(kinds) == 12


def test_policy_reproduces_the_pinned_cutoffs():
    # per-mode cutoffs written by the scalar evaluator that the array one
    # replaced: the 300 random configurations above, then the 512 benchmark
    # pool points; only the evaluation changed, so the rule must not drift
    table = json.loads(POLICY_TABLE.read_text())["configurations"]
    assert len(table) == 300 + 512
    rng = np.random.default_rng(20090116)
    for n, entry in enumerate(table):
        kw = dict(entry["params"])
        if "alpha" in kw:
            kw["alpha"] = complex(*kw["alpha"])
        params = SchemeParams(**kw)
        if n < 300:
            assert params == _random_params(rng)
        prefix = build_fig1_circuit(params, "none")
        plan = _compiled(params, prefix, _tails(params))
        assert plan.cutoffs == entry["cutoffs"] and plan.may_double, (n, params)


def test_run_reproduces_the_pinned_outputs():
    # every numeric SchemeResult field at 16 pool points of each benchmark
    # workload, written before the staged kernels moved to transposed views
    # and real blocks; only the evaluation changed, so no output may drift
    doc = json.loads(OUTPUT_TABLE.read_text())
    assert len(doc["points"]) == 3 * 16
    for entry in doc["points"]:
        res = run_interferometer(SchemeParams(**entry["params"]))
        for f in doc["fields"]:
            want = entry["outputs"][f]
            assert abs(getattr(res, f) - want) <= TOL * abs(want), (entry["params"], f)
