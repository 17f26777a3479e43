import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from qocsim.core import Cutoff, apply, tensor
from qocsim.elements import (
    _chain_basis,
    _pair_ladders,
    beam_splitter_unitary,
    coherent_state,
    element_sectors,
    fock_state,
    thermal_state,
    two_mode_squeezer_unitary,
    vacuum,
)
from qocsim.measurement import povm_element
from qocsim.scheme import SchemeParams, run_interferometer
from reference import condition, expectation, inner_product, number_matrix


def pair_index(n1, n2, d):
    return n1 + d * n2


# ---------------------------------------------------------------------------
# input states


def test_fock_and_vacuum_basics():
    c = Cutoff(6)
    assert np.allclose(vacuum(c).amps, np.eye(6)[0])
    two = fock_state(2, c)
    assert expectation(number_matrix(c), ("a",), two).real == pytest.approx(2.0)
    for m in range(4):
        for n in range(4):
            ov = inner_product(fock_state(m, c), fock_state(n, c))
            assert abs(ov - (1.0 if m == n else 0.0)) < 1e-14


def test_fock_level_out_of_range():
    with pytest.raises(ValueError):
        fock_state(6, Cutoff(6))


def test_coherent_zero_is_vacuum():
    c = Cutoff(8)
    assert np.allclose(coherent_state(0.0, c).amps, vacuum(c).amps)


def test_coherent_ground_amplitude():
    c = Cutoff(20)
    state = coherent_state(1.0, c)
    assert state.amps[0].real == pytest.approx(math.exp(-0.5), abs=1e-9)


def test_coherent_mean_photon_number():
    c = Cutoff(20)
    state = coherent_state(1.0, c)
    assert expectation(number_matrix(c), ("a",), state).real == pytest.approx(1.0, abs=1e-8)


def test_coherent_adequacy_warning():
    with pytest.warns(UserWarning, match="truncation may be inadequate"):
        coherent_state(2.0, Cutoff(8))


@pytest.mark.parametrize("alpha,d", [(1.6, 17), (2.5, 24)])
def test_coherent_state_is_silent_when_the_cutoff_keeps_its_weight(alpha, d):
    # each discards under 1e-6 of the Poisson weight; |alpha|^2 = 6.25 > 24/4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherent_state(alpha, Cutoff(d))


def test_coherent_complex_phase():
    c = Cutoff(16)
    state = coherent_state(0.5 + 0.5j, c)
    # C(n) phases follow alpha^n
    ratio = state.amps[2] / state.amps[1]
    assert np.angle(ratio) == pytest.approx(np.angle(0.5 + 0.5j), abs=1e-12)


def test_thermal_zero_is_vacuum_projector():
    c = Cutoff(5)
    rho = thermal_state(0.0, c).matrix
    expected = np.zeros((5, 5))
    expected[0, 0] = 1
    assert np.allclose(rho, expected)


def test_thermal_geometric_ratios():
    c = Cutoff(24)
    rho = thermal_state(1.0, c).matrix
    pops = np.real(np.diag(rho))
    # renormalized geometric: successive ratio nbar/(nbar+1) = 1/2
    assert pops[1] / pops[0] == pytest.approx(0.5, abs=1e-12)
    assert pops[0] == pytest.approx(0.5, rel=1e-4)  # 1/2 up to truncation renorm
    assert pops[1] == pytest.approx(0.25, rel=1e-4)


def test_thermal_mean_photon_number():
    c = Cutoff(40)
    rho = thermal_state(1.0, c)
    mean = expectation(number_matrix(c), ("a",), rho).real
    assert mean == pytest.approx(1.0, abs=1e-8)


def test_thermal_negative_nbar_rejected():
    with pytest.raises(ValueError):
        thermal_state(-0.1, Cutoff(4))


# ---------------------------------------------------------------------------
# beam splitter


def test_bs_params_validation():
    c = Cutoff(3)
    for T in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="transmittivity"):
            beam_splitter_unitary(T, c)
    with pytest.raises(ValueError, match="duplicate mode"):
        apply(beam_splitter_unitary(0.5, c), ("a", "a"), tensor(vacuum(c, "a"), vacuum(c, "b")))


def test_bs_single_photon_split():
    d = 6
    c = Cutoff(d)
    T = 0.99
    u = beam_splitter_unitary(T, c)
    out = apply(u, ("x", "y"), tensor(fock_state(1, c, "x"), vacuum(c, "y")))
    t, r = math.sqrt(T), math.sqrt(1 - T)
    assert out.amps[pair_index(1, 0, d)].real == pytest.approx(t, abs=1e-12)
    assert out.amps[pair_index(0, 1, d)].real == pytest.approx(r, abs=1e-12)


def test_bs_full_transmission_is_identity():
    c = Cutoff(5)
    u = beam_splitter_unitary(1.0, c)
    assert np.allclose(u, np.eye(25), atol=1e-12)


def test_bs_preserves_two_mode_vacuum():
    c = Cutoff(5)
    u = beam_splitter_unitary(0.37, c)
    vv = tensor(vacuum(c, "x"), vacuum(c, "y"))
    out = apply(u, ("x", "y"), vv)
    assert inner_product(vv, out).real == pytest.approx(1.0, abs=1e-12)


def test_bs_unitary_on_full_truncated_space():
    c = Cutoff(7)
    u = beam_splitter_unitary(0.8, c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(49))) < 1e-10


def test_hom_bunching_at_5050():
    d = 4
    c = Cutoff(d)
    u = beam_splitter_unitary(0.5, c)
    out = apply(u, ("x", "y"), tensor(fock_state(1, c, "x"), fock_state(1, c, "y")))
    amp11 = out.amps[pair_index(1, 1, d)]
    amp20 = out.amps[pair_index(2, 0, d)]
    amp02 = out.amps[pair_index(0, 2, d)]
    assert abs(amp11) < 1e-10
    assert abs(amp20) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    assert abs(amp20 + amp02) < 1e-10  # opposite signs carry the minus of the convention


def test_bs_binomial_amplitudes():
    # tap of |n, 0>: amplitude of |n-k, k> is sqrt(C(n,k)) r^k t^(n-k)
    d = 8
    c = Cutoff(d)
    T = 0.7
    t, r = math.sqrt(T), math.sqrt(1 - T)
    u = beam_splitter_unitary(T, c)
    n = 4
    out = apply(u, ("x", "y"), tensor(fock_state(n, c, "x"), vacuum(c, "y")))
    for k in range(n + 1):
        expected = math.sqrt(math.comb(n, k)) * r**k * t ** (n - k)
        assert out.amps[pair_index(n - k, k, d)].real == pytest.approx(expected, abs=1e-12)


def test_bs_conjugation_identities():
    d = 20
    c = Cutoff(d)
    T = 0.99
    t, r = math.sqrt(T), math.sqrt(1 - T)
    u = beam_splitter_unitary(T, c)
    b, cc = _pair_ladders(c)
    tot = np.add.outer(np.arange(d), np.arange(d)).ravel()
    blk = tot <= d - 2
    lhs1 = u @ b @ u.conj().T
    lhs2 = u @ cc @ u.conj().T
    dev1 = np.abs(lhs1 - (t * b + r * cc))[np.ix_(blk, blk)].max()
    dev2 = np.abs(lhs2 - (t * cc - r * b))[np.ix_(blk, blk)].max()
    assert dev1 < 1e-9 and dev2 < 1e-9


# ---------------------------------------------------------------------------
# two-mode squeezer


def test_squeezer_coupling_validation():
    with pytest.raises(ValueError, match="coupling"):
        two_mode_squeezer_unitary(-0.1, Cutoff(3))


def test_squeezer_zero_coupling_is_identity():
    c = Cutoff(5)
    u = two_mode_squeezer_unitary(0.0, c)
    assert np.allclose(u, np.eye(25), atol=1e-12)


def test_squeezer_vacuum_amplitudes():
    d = 12
    c = Cutoff(d)
    s = 0.1
    u = two_mode_squeezer_unitary(s, c)
    out = apply(u, ("a", "d"), tensor(vacuum(c, "a"), vacuum(c, "d")))
    lam, mu = math.tanh(s), math.cosh(s)
    for k in range(4):
        assert out.amps[pair_index(k, k, d)].real == pytest.approx(
            (-lam) ** k / mu, abs=1e-10
        )


def test_squeezer_twin_photon_structure():
    d = 10
    c = Cutoff(d)
    u = two_mode_squeezer_unitary(0.2, c)
    out = apply(u, ("a", "d"), tensor(vacuum(c, "a"), vacuum(c, "d")))
    t = np.abs(out.amps.reshape(d, d)) ** 2  # axes (d, a): the first mode is the fastest digit
    off_diag = t - np.diag(np.diag(t))
    assert np.max(off_diag) < 1e-20


def test_squeezer_unitary_on_full_truncated_space():
    c = Cutoff(10)
    u = two_mode_squeezer_unitary(0.1, c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(100))) < 1e-10


def test_squeezer_conjugation_identity():
    d = 20
    s = 0.1
    c = Cutoff(d)
    u = two_mode_squeezer_unitary(s, c)
    a, idq = _pair_ladders(c)
    tot = np.add.outer(np.arange(d), np.arange(d)).ravel()
    blk = tot <= d - 9  # 8 levels of margin under the truncation boundary
    lhs = u @ a @ u.conj().T
    rhs = math.cosh(s) * a + math.sinh(s) * idq.conj().T
    assert np.abs(lhs - rhs)[np.ix_(blk, blk)].max() < 1e-9


# ---------------------------------------------------------------------------
# sector-wise construction against the dense exponential of the full generator


@pytest.mark.parametrize("d", [8, 12, 20])
def test_sector_construction_matches_dense_expm(d):
    c = Cutoff(d)
    a1, a2 = _pair_ladders(c)
    bs_gen = a2.conj().T @ a1 - a1.conj().T @ a2
    sq_gen = -(a1.conj().T @ a2.conj().T) + a2 @ a1
    for T in (0.5, 0.9, 1.0):
        u = beam_splitter_unitary(T, c)
        dense = expm(math.acos(math.sqrt(T)) * bs_gen)
        assert np.abs(u - dense).max() <= 1e-13, T
    for s in (0.0, 0.05, 0.3):
        u = two_mode_squeezer_unitary(s, c)
        dense = expm(s * sq_gen)
        assert np.abs(u - dense).max() <= 1e-13, s


def _rect_ladders(d1, d2):
    """Real (a1, a2) on the d1×d2 pair space; pair index = n1 + d1*n2."""
    low1 = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
    low2 = np.diag(np.sqrt(np.arange(1.0, d2)), 1)
    return np.kron(np.eye(d2), low1), np.kron(low2, np.eye(d1))


def _check_layout(idx, blocks, d1, d2):
    """One stack of slots whose idx rows partition range(d1·d2), both arrays read-only."""
    n, L = idx.shape
    assert L <= min(d1, d2)
    assert idx.dtype.kind == "i" and blocks.dtype == np.complex128
    assert blocks.shape == (n, L, L)
    assert not idx.flags.writeable and not blocks.flags.writeable
    assert np.array_equal(np.sort(idx.ravel()), np.arange(d1 * d2))


@pytest.mark.parametrize("kind, value", [("bs", 0.5), ("tmsq", 0.8)])
@pytest.mark.parametrize("d1, d2", [(40, 40), (70, 8)])
def test_sector_blocks_match_expm_of_their_own_chain(kind, value, d1, d2):
    # each block against scipy's expm of the generator restricted to its idx
    # row, the generator taken from the ladder operators, not from the chain
    # formula; a row must be whole chains, uncoupled from every other state
    a1, a2 = _rect_ladders(d1, d2)
    if kind == "bs":  # acos(t)·(a2†a1 − a1†a2)
        m = a2.T @ a1
        gen = math.acos(math.sqrt(value)) * (m - m.T)
    else:  # s·(a2 a1 − a1†a2†)
        m = a2 @ a1
        gen = value * (m - m.T)
    idx, blocks = element_sectors(kind, value, d1, d2)
    _check_layout(idx, blocks, d1, d2)
    for row, block in zip(idx, blocks):
        rest = np.setdiff1d(np.arange(d1 * d2), row)
        assert not gen[np.ix_(row, rest)].any()
        chain = gen[np.ix_(row, row)]
        assert np.abs(block - expm(chain.astype(np.complex128))).max() <= 1e-13
        assert np.abs(block.conj().T @ block - np.eye(len(row))).max() <= 1e-13


@pytest.mark.parametrize("d1, d2", [(1, 6), (6, 1), (1, 1), (5, 5), (9, 4)])
def test_sector_builds_raise_no_warning(d1, d2):
    # the two chains of a slot must stay decoupled and finite, also where a
    # pair space is one level wide or the splitter is T = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, value in (("bs", 1.0), ("bs", 0.7), ("tmsq", 0.0), ("tmsq", 0.4)):
            idx, blocks = element_sectors(kind, value, d1, d2)
            _check_layout(idx, blocks, d1, d2)
            assert np.isfinite(blocks).all()


@pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
def test_coherent_amplitudes_match_gammaln_formula(alpha):
    d = 70
    n = np.arange(d)
    ref = np.exp(n * np.log(alpha) - 0.5 * gammaln(n + 1.0) - 0.5 * alpha**2)
    ref /= np.linalg.norm(ref)
    amps = coherent_state(alpha, Cutoff(d)).amps
    assert np.linalg.norm(amps - ref) <= 1e-14 * np.linalg.norm(ref)


def test_sector_construction_block_structure_at_d40():
    d = 40
    c = Cutoff(d)
    n1, n2 = np.arange(d * d) % d, np.arange(d * d) // d
    for u, sector in (
        (beam_splitter_unitary(0.9, c), n1 + n2),
        (two_mode_squeezer_unitary(0.3, c), n1 - n2),
    ):
        assert np.all(u[sector[:, None] != sector[None, :]] == 0)
        # with every cross-sector entry zero, U is unitary iff each block is
        for label in np.unique(sector):
            idx = np.flatnonzero(sector == label)
            block = u[np.ix_(idx, idx)]
            assert np.abs(block.conj().T @ block - np.eye(len(idx))).max() <= 1e-12


def test_element_build_keeps_one_copy_of_its_matrix():
    beam_splitter_unitary(0.9, Cutoff(4))  # warm imports and caches
    tracemalloc.start()
    try:
        u = beam_splitter_unitary(0.9, Cutoff(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes
    assert not u.flags.writeable


# ---------------------------------------------------------------------------
# slot layout and the per-shape eigenbasis cache

SHAPES = [(1, 1), (1, 6), (6, 1), (2, 7), (5, 5), (9, 4), (4, 9), (29, 6), (40, 40)]


def _sector_labels(kind, idx, d1):
    """Each state's conserved quantity: n1 + n2 for the splitter, n1 − n2 for the squeezer."""
    n1, n2 = idx % d1, idx // d1
    return n1 + n2 if kind == "bs" else n1 - n2


@pytest.mark.parametrize("kind, value", [("bs", 0.7), ("tmsq", 0.4)])
@pytest.mark.parametrize("d1, d2", SHAPES)
def test_slots_hold_one_whole_chain_or_two_that_fill_it(kind, value, d1, d2):
    idx, blocks = element_sectors(kind, value, d1, d2)
    L = min(d1, d2)
    assert idx.shape == (max(d1, d2), L)
    assert np.array_equal(np.sort(idx.ravel()), np.arange(d1 * d2))
    every = _sector_labels(kind, np.arange(d1 * d2), d1)
    for row, block in zip(idx, blocks):
        labels = _sector_labels(kind, row, d1)
        # a slot holds each of its chains whole, as one run of positions
        runs = [np.flatnonzero(labels == label) for label in dict.fromkeys(labels.tolist())]
        assert len(runs) in (1, 2)
        for run in runs:
            assert np.array_equal(run, np.arange(run[0], run[0] + len(run)))
            assert np.count_nonzero(every == labels[run[0]]) == len(run)
        if len(runs) == 2:
            a, b = runs
            assert len(a) + len(b) == L
            assert not block[np.ix_(a, b)].any() and not block[np.ix_(b, a)].any()


def test_a_new_value_at_a_cached_shape_reuses_its_eigenbasis():
    element_sectors.cache_clear()
    _chain_basis.cache_clear()
    for kind, values in (("bs", (0.9, 0.6)), ("tmsq", (0.1, 0.5))):
        before = _chain_basis.cache_info()
        for value in values:
            element_sectors(kind, value, 11, 5)
        after = _chain_basis.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1), kind
        for a in (*_chain_basis(kind, 11, 5), *element_sectors(kind, values[0], 11, 5)):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0


def test_runs_are_bit_identical_from_a_cold_or_a_warmed_basis_cache():
    def bits(result):
        out = []
        for name, value in vars(result).items():
            if isinstance(value, float):
                out.append((name, value.hex()))
            elif hasattr(value, "matrix"):
                out.append((name, value.matrix.tobytes(), value.trace_tag.hex()))
        return out

    params = dict(alpha=1.1, transmittivity=0.93, coupling=0.17)
    _chain_basis.cache_clear()
    element_sectors.cache_clear()
    cold = bits(run_interferometer(SchemeParams(**params)))
    _chain_basis.cache_clear()
    for T, s in ((0.95, 0.15), (0.91, 0.2), (0.93, 0.12)):
        run_interferometer(SchemeParams(alpha=1.1, transmittivity=T, coupling=s))
    element_sectors.cache_clear()
    hits = _chain_basis.cache_info().hits
    warm = bits(run_interferometer(SchemeParams(**params)))
    assert _chain_basis.cache_info().hits > hits
    assert warm == cold and len(cold) == 14


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 7), (9, 4), (40, 40), (70, 8)])
def test_whole_beam_splitter_chains_keep_their_exact_spectrum(d1, d2):
    # the chain at total photon number N < min(d1, d2) is 2·J_x of spin N/2
    idx, v, lam = _chain_basis("bs", d1, d2)
    labels = _sector_labels("bs", idx, d1)
    for N in range(min(d1, d2)):
        slot, pos = np.nonzero(labels == N)
        (s,) = set(slot)
        cols = np.flatnonzero((v[s][pos] ** 2).sum(axis=0) > 0.5)
        assert lam[s, cols].tolist() == list(range(-N, N + 1, 2)), N


# ---------------------------------------------------------------------------
# heralded add/subtract statistics (the laws behind the interferometer arms)


def conditional_distribution(joint, herald_mode, d):
    el = povm_element("exactly", 1, 1.0, False, d)
    branch, prob = condition(joint, herald_mode, el)
    from qocsim.core import to_mixed

    rho = to_mixed(branch)
    return np.real(np.diag(rho.matrix)) / prob, prob


def test_subtraction_statistics_match_tap_law():
    # thermal input through a T=0.99 tap, exactly one reflected photon:
    # P(m) ∝ (m+1) T^m P0(m+1), exact for the truncated input
    d = 16
    c = Cutoff(d)
    T = 0.99
    rho = thermal_state(1.0, c, "a")
    p0 = np.real(np.diag(rho.matrix))
    joint = tensor(rho, vacuum(c, "b"))
    bs = beam_splitter_unitary(T, c)
    out = apply(bs, ("a", "b"), joint)
    dist, _ = conditional_distribution(out, "b", d)
    model = np.array([(m + 1) * T**m * p0[m + 1] if m + 1 < d else 0.0 for m in range(d)])
    model /= model.sum()
    mask = model > 1e-9
    assert np.max(np.abs(dist[mask] / model[mask] - 1.0)) < 1e-10


def test_addition_statistics_match_pair_law():
    # thermal input through a two-mode squeezer, one idler photon:
    # P(m) ∝ m μ^{-2(m-1)} P0(m-1), exact away from the truncation band
    d = 24
    c = Cutoff(d)
    s = 0.1
    mu = math.cosh(s)
    rho = thermal_state(1.0, c, "a")
    p0 = np.real(np.diag(rho.matrix))
    joint = tensor(rho, vacuum(c, "d"))
    sq = two_mode_squeezer_unitary(s, c)
    out = apply(sq, ("a", "d"), joint)
    dist, _ = conditional_distribution(out, "d", d)
    model = np.array([m * mu ** (-2 * (m - 1)) * p0[m - 1] if m >= 1 else 0.0 for m in range(d)])
    model /= model.sum()
    mask = (model > 1e-9) & (np.arange(d) <= d - 6)  # stay clear of the truncation band
    assert np.max(np.abs(dist[mask] / model[mask] - 1.0)) < 1e-6
