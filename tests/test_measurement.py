import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import comb

from qocsim.core import apply, partial_trace
from qocsim.elements import beam_splitter_unitary, two_mode_squeezer_unitary
from qocsim.measurement import ZeroProbabilityError, povm_diagonal, povm_element
from qocsim.phasespace import fidelity
from reference import coherent_state, condition, fock_state, tensor, thermal_state, to_mixed, vacuum


def _outcomes(onoff: bool, d: int) -> list:
    """Every (requirement, count) of a detector on d levels: no click and click, or 0..d-1 photons."""
    if onoff:
        return [("noclick", None), ("click", None)]
    return [("exactly", k) for k in range(d)]


def test_detector_validation():
    for requirement, count in (("thermocouple", None), ("exactly", None), ("exactly", -1),
                               ("click", 1), ("noclick", 0)):
        with pytest.raises(ValueError, match="unknown requirement"):
            povm_diagonal(requirement, count, 1.0, False, 4)
    for eta in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="efficiency"):
            povm_diagonal("click", None, eta, True, 4)


@pytest.mark.parametrize("onoff", [True, False], ids=["on-off", "number-resolving"])
@pytest.mark.parametrize("eta", [1.0, 0.45, 0.0])
def test_povm_completeness(onoff, eta):
    total = sum(povm_diagonal(req, k, eta, onoff, 12) for req, k in _outcomes(onoff, 12))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_ideal_onoff_off_is_vacuum_projector():
    expected = np.eye(6)[0]
    assert np.allclose(povm_diagonal("noclick", None, 1.0, True, 6), expected)
    assert np.allclose(povm_diagonal("click", None, 1.0, True, 6), 1.0 - expected)


def test_onoff_single_photon_click_probability():
    el = povm_element("click", None, 0.45, True, 6)
    assert el[1, 1].real == pytest.approx(0.45, abs=1e-12)


def test_number_resolving_binomial_thinning():
    eta = 0.6
    el = povm_element("exactly", 2, eta, False, 8)
    for n in range(8):
        expected = math.comb(n, 2) * eta**2 * (1 - eta) ** (n - 2) if n >= 2 else 0.0
        assert el[n, n].real == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("eta", [0.6, 1.0])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_number_resolving_element_matches_scipy_comb(k, eta):
    d = 70
    n = np.arange(d)
    ref = np.where(n >= k, comb(n, k) * eta**k * (1.0 - eta) ** np.maximum(n - k, 0), 0.0)
    diag = np.diag(povm_element("exactly", k, eta, False, d))
    assert np.all(diag.imag == 0)
    assert np.all(np.abs(diag.real - ref) <= 1e-14 * np.abs(ref))


def test_exactly_requires_number_resolving():
    with pytest.raises(ValueError):
        povm_element("exactly", 1, 1.0, True, 4)


@pytest.mark.parametrize("onoff", [True, False], ids=["on-off", "number-resolving"])
@pytest.mark.parametrize("eta", [0.0, 0.45, 1.0])
@pytest.mark.parametrize("d", [2, 5, 12])
def test_povm_diagonal_is_the_element_diagonal_bit_for_bit(onoff, eta, d):
    counts = sorted({0, 1, d - 1, d})
    for req in [("click", None), ("noclick", None)] + [("exactly", k) for k in counts]:
        if req[0] == "exactly" and (onoff or req[1] >= d):
            with pytest.raises(ValueError) as from_element:
                povm_element(*req, eta, onoff, d)
            with pytest.raises(ValueError, match=re.escape(str(from_element.value))):
                povm_diagonal(*req, eta, onoff, d)
            continue
        got = povm_diagonal(*req, eta, onoff, d)
        want = np.diag(povm_element(*req, eta, onoff, d)).real
        assert got.dtype == want.dtype == np.float64, req
        assert got.tobytes() == want.tobytes(), req


def test_condition_vacuum_noclick_keeps_state():
    d = 6
    with pytest.warns(UserWarning, match="truncation may be inadequate"):
        alpha = coherent_state(0.8, d)
    joint = tensor(alpha, vacuum(d))
    el = povm_element("noclick", None, 1.0, True, 6)
    branch, prob = condition(joint, ("a", "anc"), "anc", el)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert branch.ndim == 1
    assert fidelity(alpha, branch) == pytest.approx(1.0, abs=1e-12)


def test_condition_idler_heralds_single_photon():
    d = 12
    s = 0.1
    sq = two_mode_squeezer_unitary(s, d)
    out = apply(sq, ("a", "d"), ("a", "d"), tensor(vacuum(d), vacuum(d)))
    el = povm_element("exactly", 1, 1.0, False, d)
    branch, prob = condition(out, ("a", "d"), "d", el)
    lam, mu = math.tanh(s), math.cosh(s)
    assert prob == pytest.approx(lam**2 / mu**2, abs=1e-10)
    assert branch.ndim == 1
    assert fidelity(fock_state(1, d), branch) == pytest.approx(1.0, abs=1e-10)


def test_condition_reflected_photon_is_subtraction():
    d = 16
    T = 0.99
    bs = beam_splitter_unitary(T, d)
    out = apply(bs, ("a", "b"), ("a", "b"), tensor(coherent_state(1.0, d), vacuum(d)))
    el = povm_element("exactly", 1, 1.0, False, d)
    branch, prob = condition(out, ("a", "b"), "b", el)
    # a|t alpha> ∝ |t alpha>: the branch is the attenuated coherent state up to O(r^2)
    ref = coherent_state(math.sqrt(T), d)
    assert fidelity(ref, branch) > 1 - 1e-3


def test_condition_zero_probability_raises():
    d = 6
    joint = tensor(vacuum(d), vacuum(d))
    el = povm_element("exactly", 2, 1.0, False, 6)
    with pytest.raises(ZeroProbabilityError):
        condition(joint, ("a", "b"), "b", el)


def test_condition_rejects_non_diagonal_element():
    d = 4
    with pytest.warns(UserWarning, match="truncation may be inadequate"):
        joint = tensor(coherent_state(0.5, d), coherent_state(0.3, d))
    plus = np.full((4, 4), 0.25, dtype=complex)  # |+⟩⟨+| over the 4 levels
    for state in (joint, to_mixed(joint)):
        with pytest.raises(ValueError, match="diagonal"):
            condition(state, ("a", "b"), "b", plus)


def test_condition_probabilities_complete():
    d = 8
    rng = np.random.default_rng(21)
    state = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)  # over ("a", "b")
    total = 0.0
    for req, k in _outcomes(False, d):
        el = povm_element(req, k, 0.7, False, d)
        try:
            _, prob = condition(state, ("a", "b"), "b", el)
        except ZeroProbabilityError:
            prob = 0.0
        total += prob
    assert total == pytest.approx(np.vdot(state, state).real, abs=1e-10)


def test_onoff_click_equals_complement_of_vacuum_projector():
    d = 8
    rng = np.random.default_rng(4)
    state = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)  # over ("a", "b")
    el_click = povm_element("click", None, 1.0, True, d)
    proj = np.eye(d, dtype=complex)
    proj[0, 0] = 0
    b1, p1 = condition(state, ("a", "b"), "b", el_click)
    b2, p2 = condition(state, ("a", "b"), "b", proj)
    assert p1 == pytest.approx(p2, abs=1e-12)
    assert np.allclose(to_mixed(b1), to_mixed(b2), atol=1e-12)


def test_condition_mixed_state_diagonal_path():
    d = 10
    joint = tensor(thermal_state(0.8, d), vacuum(d))
    bs = beam_splitter_unitary(0.9, d)
    out = apply(bs, ("a", "b"), ("a", "b"), joint)
    el = povm_element("click", None, 0.5, True, d)
    branch, prob = condition(out, ("a", "b"), "b", el)
    assert branch.shape == (d, d)
    assert 0 < prob < 1
    assert np.trace(branch).real == pytest.approx(prob, rel=1e-10)
    assert np.linalg.eigvalsh(branch).min() >= -1e-12


def test_pattern_probability_click_statistics():
    # P(click) = 1 − e^{−|α|²}: the click diagonal read against the populations
    d = 10
    pops = np.abs(coherent_state(1.0, d)) ** 2
    p_click = povm_diagonal("click", None, 1.0, True, d) @ pops
    assert p_click == pytest.approx(1 - math.exp(-1.0), abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_click_probability_monotone_in_efficiency(pops, eta1, eta2):
    # P(click) is nondecreasing in eta on diagonal states
    total = sum(pops)
    if total == 0:
        pops = [1.0] + pops[1:]
        total = sum(pops)
    diag = np.array(pops) / total
    lo, hi = sorted((eta1, eta2))
    p_lo = povm_diagonal("click", None, lo, True, 6) @ diag
    p_hi = povm_diagonal("click", None, hi, True, 6) @ diag
    assert p_hi >= p_lo - 1e-12


def test_inefficiency_matches_beam_splitter_dilation():
    # binomial-thinning POVM == tap to an ancilla with an ideal detector
    d = 10
    eta = 0.45
    rng = np.random.default_rng(17)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    state = vec / np.linalg.norm(vec)  # over ("keep", "meas")

    # dilation: reflect the measured mode into an ancilla with r^2 = eta
    joint = tensor(state, vacuum(d))
    bs = beam_splitter_unitary(1.0 - eta, d)
    modes = ("keep", "meas", "anc")
    tapped = apply(bs, ("meas", "anc"), modes, joint)
    for k in (0, 1, 2):
        el = povm_element("exactly", k, eta, False, d)
        direct_branch, direct_prob = condition(state, ("keep", "meas"), "meas", el)
        el_ideal = povm_element("exactly", k, 1.0, False, d)
        dil_branch, dil_prob = condition(tapped, modes, "anc", el_ideal)
        assert direct_prob == pytest.approx(dil_prob, abs=1e-12)
        red = partial_trace(dil_branch, ("keep", "meas"), ("keep",))
        assert np.allclose(to_mixed(direct_branch), red, atol=1e-12)
