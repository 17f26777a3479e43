"""run_interferometer against the three-execution path and the shipped circuit file."""

from dataclasses import fields, replace

import numpy as np
import pytest

from qocsim import builtin_circuit_text, engine, scheme
from qocsim.core import Cutoff, MixedState
from qocsim.dsl import compile_circuit, parse
from qocsim.engine import LeakBudgetError, execute_plan
from qocsim.measurement import DetectorModel, HeraldPattern, click
from qocsim.scheme import (
    SchemeParams,
    SchemeResult,
    _attenuated_reference,
    _branch_fidelity,
    build_fig1_circuit,
    run_interferometer,
)

TOL = 1e-12


def _three_execution_oracle(params: SchemeParams) -> SchemeResult:
    """One execution per circuit: pd2 with the policy, pd1 and none pinned to its cutoff."""
    res_pd2 = execute_plan(compile_circuit(build_fig1_circuit(params, "pd2"), params.policy()))
    settled = replace(params, cutoff=res_pd2.cutoff)
    res_pd1 = execute_plan(compile_circuit(build_fig1_circuit(settled, "pd1"), settled.policy()))
    res_pre = execute_plan(compile_circuit(build_fig1_circuit(settled, "none"), settled.policy()))

    cutoff = Cutoff(res_pd2.cutoff)
    w_pd2 = float(np.prod([h.probability for h in res_pd2.heralds[1:]]))
    w_pd1 = float(np.prod([h.probability for h in res_pd1.heralds[1:]]))

    def branch(res, weight):
        rho = res.output_value("state", "a")
        return MixedState.create(rho.modes, rho.cutoff, rho.matrix * weight)

    rho_pd2 = branch(res_pd2, w_pd2)
    rho_pd1 = branch(res_pd1, w_pd1)
    post = res_pre.final_state  # up to 40**3 dimensions: never densified
    dets = {
        "b": DetectorModel("on-off", params.eta_pd1),
        "c": DetectorModel("on-off", params.eta_pd2),
    }
    w = post.weight
    p_b = post.pattern_probability(HeraldPattern({"b": click}), dets) / w
    p_c = post.pattern_probability(HeraldPattern({"c": click}), dets) / w
    p_bc = post.pattern_probability(HeraldPattern({"b": click, "c": click}), dets) / w
    input_ref = params.input_state(cutoff)
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
        fidelity_pd2_vs_input=_branch_fidelity(input_ref, rho_pd2),
        fidelity_pd2_vs_attenuated=_branch_fidelity(_attenuated_reference(params, cutoff), rho_pd2),
        fidelity_pd1_vs_input=_branch_fidelity(input_ref, rho_pd1),
        leak_max=max(res_pd2.leak_max, res_pd1.leak_max, res_pre.leak_max),
    )


CASES = {
    "alpha1": SchemeParams(alpha=1.0),
    "alpha2-branch-retry": SchemeParams(alpha=2.0, transmittivity=0.99, coupling=0.05),
    "thermal": SchemeParams(input_kind="thermal", nbar=0.5),
    "lossy-pd1-pd2": SchemeParams(alpha=1.0, eta_pd1=0.6, eta_pd2=0.6),
    "onoff-pd0": SchemeParams(alpha=1.0, pd0_onoff=True, eta_pd0=0.5),
    "swapped-bs3": SchemeParams(alpha=1.0, swap_bs3_sign=True),
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
        if isinstance(a, MixedState):
            assert a.modes == b.modes == ("a",), f.name
            assert np.max(np.abs(a.matrix - b.matrix)) <= TOL, f.name
        else:
            assert abs(a - b) <= TOL, f.name


def _predicted(params: SchemeParams) -> int:
    return max(params.policy().choose(build_fig1_circuit(params, b))[0] for b in ("pd2", "pd1"))


def test_branch_stage_leak_doubles_the_cutoff():
    # lowered to d=20, the policy-compiled prefix passes every stage up to BS3
    # but leaks past the budget at the PD2 branch's `herald c`; the retry must
    # cover the branch stages
    params = CASES["alpha2-branch-retry"]
    prefix = build_fig1_circuit(params, "none")
    tails = [
        build_fig1_circuit(params, b).operations[len(prefix.operations):] for b in ("pd2", "pd1")
    ]
    low = replace(compile_circuit(prefix, params.policy()), cutoff=20)
    assert low.may_double
    assert execute_plan(low).cutoff == 20
    with pytest.raises(LeakBudgetError) as exc:
        execute_plan(replace(low, may_double=False), branches=tails)
    assert exc.value.stage == "herald c"
    assert execute_plan(low, branches=tails).cutoff == 40
    assert run_interferometer(params).cutoff == _predicted(params)


@pytest.mark.parametrize("params", [
    SchemeParams(alpha=1.57, transmittivity=0.86, coupling=0.29),
    SchemeParams(alpha=1.25, transmittivity=0.98, coupling=0.06),
    # d=17 leaks 1.0e-6 at d=16: the tap factor and the heralded boost both bind
    SchemeParams(alpha=1.5408, transmittivity=0.92397, coupling=0.19563),
    SchemeParams(alpha=0.45, transmittivity=0.99, coupling=0.1),
    # the unheralded squeezer stage binds, at the top of its truncated chains
    SchemeParams(alpha=0.5, transmittivity=0.99, coupling=0.9),
    SchemeParams(input_kind="thermal", nbar=0.95),
], ids=["coherent-strong-taps", "coherent-weak-taps", "coherent-edge", "coherent-small",
        "strong-squeezer", "thermal"])
@pytest.mark.filterwarnings("ignore:cutoff d=")
def test_predicted_cutoff_passes_first_and_is_near_the_smallest(params, monkeypatch):
    attempts = []
    staged = engine._execute_staged

    def counting(plan, d, branches):
        attempts.append(d)
        return staged(plan, d, branches)

    monkeypatch.setattr(engine, "_execute_staged", counting)
    d = _predicted(params)
    res = run_interferometer(params)
    assert attempts == [d] and res.cutoff == d and res.leak_max <= params.leak_budget
    # within three levels of the smallest cutoff that passes
    with pytest.raises(LeakBudgetError):
        run_interferometer(replace(params, cutoff=d - 4))


def test_thermal_nbar2_runs_within_budget_at_default_settings():
    params = SchemeParams(input_kind="thermal", nbar=2.0)
    res = run_interferometer(params)
    assert res.cutoff == _predicted(params) <= 56
    assert res.leak_max <= params.leak_budget
    assert 0.0 < res.pd2_weight < res.pd1_weight


def test_click_statistics_match_three_pattern_probabilities():
    for params in (CASES["thermal"], CASES["lossy-pd1-pd2"]):
        res = run_interferometer(params)
        pinned = replace(params, cutoff=res.cutoff)
        post = execute_plan(compile_circuit(build_fig1_circuit(pinned, "none"), pinned.policy())).final_state
        dets = {
            "b": DetectorModel("on-off", params.eta_pd1),
            "c": DetectorModel("on-off", params.eta_pd2),
        }
        w = post.weight
        for name, pattern in (("p_b", {"b": click}), ("p_c", {"c": click}),
                              ("p_bc", {"b": click, "c": click})):
            want = post.pattern_probability(HeraldPattern(pattern), dets) / w
            assert abs(getattr(res, name) - want) <= 1e-14 * want, name


def test_interferometer_executes_one_plan(monkeypatch):
    calls = []

    def counting(plan, **kwargs):
        calls.append(plan)
        return execute_plan(plan, **kwargs)

    monkeypatch.setattr(scheme, "execute_plan", counting)
    run_interferometer(SchemeParams(input_kind="thermal", nbar=0.5))
    assert len(calls) == 1


def test_fig1_circuit_file_agrees_with_run_interferometer():
    res = execute_plan(compile_circuit(parse(builtin_circuit_text("fig1"))))
    sch = run_interferometer(SchemeParams(alpha=1.0))
    assert res.cutoff == sch.cutoff
    assert abs(res.heralds[0].probability - sch.pd0_probability) <= TOL
    rest = float(np.prod([h.probability for h in res.heralds[1:]]))
    assert abs(rest - sch.pd2_weight) <= TOL
    assert abs(res.output_value("fidelity", "a") - sch.fidelity_pd2_vs_input) <= TOL
    state = res.output_value("state", "a").matrix
    assert np.max(np.abs(state - sch.normalized_branch("pd2").matrix)) <= TOL
