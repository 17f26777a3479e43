"""Exact identities at explicit cutoffs: between execution paths or inputs, each
held to 1e-13, and between the Fig. 1 branches and their closed form, held to
1e-12.  The BS3 swap is also held at adaptive cutoffs, within the leak bound."""

import cmath
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from qocsim.dsl import (CircuitSpec, ElementStmt, HeraldStmt, InputStmt, compile_circuit,
                        parse)
from qocsim.engine import execute_plan
from qocsim.scheme import SchemeParams, SchemeResult, run_interferometer
from reference import fig1_branch_circuit, fig1_plan, output_value, thermal_state

TOL = 1e-13


PHASE_CASES = {
    "ideal": SchemeParams(alpha=1.2, cutoff=16),
    "onoff-lossy": SchemeParams(alpha=1.0, pd0_onoff=True, eta_pd0=0.8, eta_pd1=0.6,
                                eta_pd2=0.7, transmittivity=0.9, coupling=0.25, cutoff=16),
}


@pytest.mark.parametrize("phi", [0.7, -2.1])
@pytest.mark.parametrize("name", list(PHASE_CASES))
def test_input_phase_rotates_every_branch_by_the_number_operator(name, phi):
    # every element conserves n_a + n_b + n_c − n_d and every herald is
    # diagonal, so α → αe^{iφ} maps each branch ρ to UρU†, U = e^{iφn̂}
    params = PHASE_CASES[name]
    rotated = replace(params, alpha=params.alpha * cmath.exp(1j * phi))
    assert fig1_plan(replace(rotated, cutoff=None)).cutoffs == fig1_plan(
        replace(params, cutoff=None)).cutoffs
    want, got = run_interferometer(params), run_interferometer(rotated)
    assert got.cutoff == want.cutoff
    for f in fields(SchemeResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            u = np.exp(1j * phi * np.arange(len(b)))
            assert np.abs(a - u[:, None] * b * u.conj()).max() <= TOL, f.name
        elif isinstance(b, float):
            assert abs(a - b) <= TOL, f.name


@pytest.mark.parametrize("name", list(PHASE_CASES))
def test_conjugate_input_conjugates_every_branch(name):
    # every element and herald is real in the Fock basis, so α → α* maps each
    # branch ρ to ρ* and leaves every probability and fidelity unchanged
    params = replace(PHASE_CASES[name], alpha=0.8 - 0.9j)
    want, got = run_interferometer(params), run_interferometer(replace(params, alpha=0.8 + 0.9j))
    for f in fields(SchemeResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.abs(a - b.conj()).max() <= TOL, f.name
        elif isinstance(b, float):
            assert abs(a - b) <= TOL, f.name


@pytest.mark.parametrize("nbar, T, s, d", [(0.8, 0.95, 0.2, 16), (0.5, 0.9, 0.1, 20),
                                           (1.0, 0.99, 0.3, 24)])
def test_thermal_branches_are_the_fock_branches_mixed_by_the_thermal_law(nbar, T, s, d):
    # every stage is linear in the input state, and the thermal input at d
    # levels is Σₙ pₙ|n⟩⟨n|, so each joint branch P(PD0)·ρ is Σₙ pₙ of the
    # Fock-n ones; the thermal run carries its members packed by charge
    base = SchemeParams(transmittivity=T, coupling=s, cutoff=d, leak_budget=1.0)
    law = np.real(np.diag(thermal_state(nbar, d)))
    thermal = run_interferometer(replace(base, input_kind="thermal", nbar=nbar))
    fock = [run_interferometer(replace(base, input_kind="fock", fock_n=n)) for n in range(d)]
    for branch in ("pd1_branch", "pd2_branch"):
        want = sum(p * r.pd0_probability * getattr(r, branch) for p, r in zip(law, fock))
        got = thermal.pd0_probability * getattr(thermal, branch)
        assert np.abs(got - want).max() <= TOL, branch


def _loss_as_beam_splitter(spec: CircuitSpec, eta: float) -> CircuitSpec:
    """``spec`` with its PD0 efficiency moved onto a ``bs d e`` to a new vacuum mode e."""
    ops = []
    for op in spec.operations:
        if isinstance(op, HeraldStmt) and op.mode == "d":
            ops += [ElementStmt("bs", ("d", "e"), eta), replace(op, eta=1.0)]
        else:
            ops.append(op)
    return CircuitSpec(spec.modes + ("e",), spec.inputs + (InputStmt("e", "vacuum"),),
                       tuple(ops), spec.outputs)


@pytest.mark.parametrize("pd0_onoff", [False, True], ids=["number-resolving", "onoff"])
@pytest.mark.parametrize("params", [SchemeParams(alpha=1.2),
                                    SchemeParams(input_kind="thermal", nbar=0.7)],
                         ids=["coherent", "thermal"])
def test_pd0_loss_is_a_beam_splitter_to_a_traced_mode(params, pd0_onoff):
    # binomial thinning at η is a beam splitter of transmittivity η followed
    # by an ideal detector; mode e is traced out by its two ideal on-off outcomes
    params = replace(params, pd0_onoff=pd0_onoff, eta_pd0=0.7)
    loose = {"cutoff": 12, "leak_budget": 1.0}
    for branch in ("pd2", "pd1"):
        spec = fig1_branch_circuit(params, branch)
        lossy = execute_plan(compile_circuit(spec, **loose))
        split = execute_plan(compile_circuit(
            _loss_as_beam_splitter(spec, params.eta_pd0), **loose,
            branches=[[HeraldStmt("e", "noclick", None, 1.0, True)],
                      [HeraldStmt("e", "click", None, 1.0, True)]]))
        want = [h.probability for h in lossy.heralds]
        assert np.abs(np.subtract([h.probability for h in split.heralds], want)).max() <= TOL
        rho = sum(ens.reduced("a") for ens, _ in split.branches)
        assert np.abs(rho - lossy.final_state.reduced("a")).max() <= TOL


def _number_resolved_fig1(inp: str, T: float, s: float, branch: str, out: str = "probs") -> str:
    """Fig. 1 on the input ``inp``, every herald number-resolving: one photon at PD0,
    then one at the branch's detector and none at the other."""
    dark, bright = ("b", "c") if branch == "pd2" else ("c", "b")
    return (f"modes a b c d\ninput a {inp}\ninput b vacuum\ninput c vacuum\n"
            f"input d vacuum\nbs a b T={T}\ntmsq a d s={s}\nherald d exactly 1\n"
            f"bs a c T={T}\nbs c b T=0.5\nherald {dark} exactly 0\n"
            f"herald {bright} exactly 1\nout {out}\n")


def _closed_form(T: float, s: float, branch: str) -> tuple[float, float]:
    """(g, h) of the branch operator K ∝ gⁿ̂(1 + h n̂)."""
    mu, t = math.cosh(s), math.sqrt(T)
    return T / mu, 1.0 - mu / t if branch == "pd2" else 1.0 + mu / t


@pytest.mark.parametrize("branch", ["pd2", "pd1"])
@pytest.mark.parametrize("T, s", [(0.99, 0.1), (0.9, 0.1), (0.8, 0.3)])
def test_branch_weights_follow_the_closed_form_at_all_orders(T, s, branch):
    # the branch applies K ∝ gⁿ̂(1 + h n̂), g = T/cosh s and h = 1 ∓ cosh s/√T
    # for PD2/PD1, so a Fock input n is kept with weight ∝ g²ⁿ(1 + hn)²; as
    # T → 1 and s → 0 K becomes 1 (PD2) and 1 + 2n̂ (PD1), the paper's claim.
    # At (0.8, 0.3) K_PD2 changes sign between n = 5 and 6.
    g, h = _closed_form(T, s, branch)
    w = [execute_plan(compile_circuit(parse(_number_resolved_fig1(f"fock {n}", T, s, branch)),
                                      cutoff=24))
         .joint_probability for n in range(11)]
    for n in range(11):
        want = g ** (2 * n) * (1.0 + h * n) ** 2
        assert abs(w[n] / w[0] - want) <= 1e-12 * want, n


@pytest.mark.parametrize("branch", ["pd2", "pd1"])
@pytest.mark.parametrize("T, s", [(0.99, 0.1), (0.9, 0.1), (0.8, 0.3)])
def test_coherent_branch_states_follow_the_closed_form_at_all_orders(T, s, branch):
    # K|α⟩ ∝ gⁿ̂(1 + h n̂)|α⟩ = (1 + h·g·α·a†)|gα⟩: the coherent input keeps
    # its shape, shrunk by g, and the branch adds h·g·α·a† (for PD2 the
    # identity, for PD1 1 + 2n̂ as T → 1 and s → 0)
    g, h = _closed_form(T, s, branch)
    n = np.arange(24)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    for alpha in (0.6, 1.0, 1.4, 0.8 - 0.9j):
        a = complex(alpha)
        text = _number_resolved_fig1(f"coherent {a.real} {a.imag}", T, s, branch, "state a")
        res = execute_plan(compile_circuit(parse(text), cutoff=24))
        rho = output_value(res, "state", "a")
        c = np.exp(n * np.log(abs(g * a)) - 0.5 * log_fact) * np.exp(1j * n * cmath.phase(a))
        v = c + h * g * a * np.sqrt(n) * np.concatenate(([0.0], c[:-1]))
        fid = float(np.real(v.conj() @ rho @ v)) / float(np.real(np.vdot(v, v)))
        assert 1.0 - fid <= 1e-12, alpha


# each field of the swapped run and the field of the plain run it equals; the
# attenuated-input fidelity is taken on PD2 alone and has no PD1 counterpart
SWAPPED = {"pd1_branch": "pd2_branch", "pd1_weight": "pd2_weight", "p_b": "p_c",
           "p_bc_given_b": "p_bc_given_c", "fidelity_pd1_vs_input": "fidelity_pd2_vs_input"}
SWAPPED |= {v: k for k, v in SWAPPED.items()} | {"pd0_probability": "pd0_probability",
                                                  "p_bc": "p_bc"}
SWAP_CASES = {
    "coherent": SchemeParams(alpha=1.2),
    "thermal": SchemeParams(input_kind="thermal", nbar=0.8),
    "fock": SchemeParams(input_kind="fock", fock_n=2),
    "thermal-onoff-lossy": SchemeParams(input_kind="thermal", nbar=0.6, pd0_onoff=True,
                                        eta_pd0=0.8, eta_pd1=0.7, eta_pd2=0.7,
                                        transmittivity=0.9, coupling=0.25),
}


def _plain_and_swapped(params: SchemeParams) -> tuple[SchemeResult, SchemeResult]:
    return run_interferometer(params), run_interferometer(replace(params, swap_bs3_sign=True))


@pytest.mark.parametrize("name", list(SWAP_CASES))
def test_swapping_bs3_exchanges_the_branches(name):
    # BS3 on (b, c) instead of (c, b) sends its outputs b → c and c → −b; the
    # on-off heralds do not see the sign, so with η_pd1 = η_pd2 the swapped
    # run's PD1 branch is the plain run's PD2 branch and vice versa.  Both run
    # at one explicit cutoff: at adaptive ones the compiler sizes b and c
    # differently on the two sides (see the next test)
    plain, swapped = _plain_and_swapped(replace(SWAP_CASES[name], cutoff=16, leak_budget=1.0))
    for field, other in SWAPPED.items():
        a, b = getattr(swapped, field), getattr(plain, other)
        if isinstance(b, np.ndarray):
            assert np.abs(a - b).max() <= TOL, field
        elif field.startswith("p_bc_given"):  # a ratio over p_b or p_c ≈ 0.01
            assert abs(a - b) <= 1e-12 * b, field
        else:
            assert abs(a - b) <= TOL, field


# leak-checked stages in one Fig. 1 execution (4 prepares, 4 unitaries, 3 heralds)
LEAK_STAGES = 11


def test_swapping_bs3_at_adaptive_cutoffs_holds_within_the_leak_bound():
    # the swap moves the no-click herald from b to c, so the compiler sizes
    # b and c differently on the two sides and each side truncates its own way;
    # every stage's leak is within the budget, so a branch of weight w moves by
    # at most LEAK_STAGES·budget/w
    params = SWAP_CASES["thermal-onoff-lossy"]
    cuts = fig1_plan(params).cutoffs
    assert cuts["b"] != cuts["c"]
    assert fig1_plan(replace(params, swap_bs3_sign=True)).cutoffs == {
        **cuts, "b": cuts["c"], "c": cuts["b"]}
    plain, swapped = _plain_and_swapped(params)
    tol = LEAK_STAGES * params.leak_budget / min(plain.pd1_weight, plain.pd2_weight)
    for field, other in SWAPPED.items():
        a, b = getattr(swapped, field), getattr(plain, other)
        if isinstance(b, np.ndarray):
            assert np.abs(a / a.trace().real - b / b.trace().real).max() <= tol, field
        elif field.startswith("fidelity"):
            assert abs(a - b) <= tol, field
        else:
            assert abs(a - b) <= tol * abs(b), field
