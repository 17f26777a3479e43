import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qocsim.core import (
    DimensionMismatchError,
    UnknownModeError,
    annihilation_matrix,
    apply,
    apply_matrix,
    partial_trace,
    truncated_commutator,
)
from qocsim.phasespace import fidelity, wigner
from reference import (coherent_state, creation_matrix, embed, expectation, fock_state,
                       number_matrix, tensor, to_mixed, vacuum)


def test_annihilation_d2_matrix():
    a = annihilation_matrix(2)
    assert np.allclose(a, [[0, 1], [0, 0]])


def test_annihilation_entries_sqrt_n():
    a = annihilation_matrix(4)
    assert a[2, 3] == pytest.approx(np.sqrt(3), abs=1e-12)


def test_annihilation_kills_vacuum():
    a = annihilation_matrix(5)
    out = apply(a, ("a",), ("a",), vacuum(5))
    assert np.allclose(out, 0)


def test_creation_basics():
    out = apply(creation_matrix(2), ("a",), ("a",), vacuum(2))
    assert np.allclose(out, [0, 1])
    # top level leaks to zero
    out = apply(creation_matrix(3), ("a",), ("a",), fock_state(2, 3))
    assert np.allclose(out, 0)
    assert creation_matrix(5)[4, 3] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("d", list(range(2, 65)))
def test_truncated_commutator_structure(d):
    comm = truncated_commutator(d)
    expected = np.diag(np.concatenate([np.ones(d - 1), [-(d - 1.0)]]))
    assert np.max(np.abs(comm - expected)) <= 1e-12


def test_embed_identity_is_identity():
    out = embed(np.eye(3), ("x",), ("x", "y"), 3)
    assert np.allclose(out, np.eye(9))


def test_embed_annihilation_first_mode():
    st11 = tensor(fock_state(1, 3), fock_state(1, 3))
    op = embed(annihilation_matrix(3), ("m0",), ("m0", "m1"), 3)
    out = apply(op, ("m0", "m1"), ("m0", "m1"), st11)
    # |1,1> -> |0,1>: flat index 0 + 3*1 = 3
    expected = np.zeros(9)
    expected[3] = 1
    assert np.allclose(out, expected)


def test_embed_disjoint_supports_commute():
    a = annihilation_matrix(3)
    first = embed(a, ("m0",), ("m0", "m1"), 3)
    last = embed(a, ("m1",), ("m0", "m1"), 3)
    assert np.allclose(first @ last, last @ first)


def test_embed_respects_composition():
    d = 4
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ex = embed(x, ("p",), ("p", "q"), d)
    ey = embed(y, ("p",), ("p", "q"), d)
    exy = embed(x @ y, ("p",), ("p", "q"), d)
    assert np.allclose(ex @ ey, exy, atol=1e-12)


def test_embed_unknown_mode_and_dim_mismatch():
    with pytest.raises(UnknownModeError):
        embed(annihilation_matrix(3), ("z",), ("x", "y"), 3)
    with pytest.raises(DimensionMismatchError):
        embed(annihilation_matrix(4), ("x",), ("x", "y"), 3)


def test_two_mode_embed_matches_kron_convention():
    d = 3
    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    full = embed(m, ("x", "y"), ("x", "y", "z"), d)
    assert np.allclose(full, np.kron(np.eye(3), m))
    # embedding with the pair reversed permutes the operator's own digits
    full_rev = embed(m, ("y", "x"), ("x", "y", "z"), d)
    perm = m.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
    assert np.allclose(full_rev, np.kron(np.eye(3), perm))


@pytest.mark.parametrize("d", [3, 4])
def test_apply_matrix_sectors_equal_their_block_diagonal_matrix(d):
    rng = np.random.default_rng(d)
    # a random partition of the pair space into d pieces of d states, as one
    # (idx, blocks) stack of real blocks, like an element's
    idx = rng.permutation(d * d).reshape(d, d)
    blocks = rng.normal(size=(d, d, d))
    dense = np.zeros((d * d, d * d))
    for row, block in zip(idx, blocks):
        dense[np.ix_(row, row)] = block
    modes = ("x", "y", "z")
    members = rng.normal(size=(d**3, 5)) + 1j * rng.normal(size=(d**3, 5))
    for op_modes in itertools.permutations(modes, 2):
        full = embed(dense, op_modes, modes, d)
        for arr in (members, members[:, 0]):
            for ops in ((idx, blocks), (np.arange(len(dense))[None], dense[None])):
                out = apply_matrix(arr, modes, (d,) * 3, ops, op_modes)
                assert out.shape == arr.shape
                assert np.abs(out - full @ arr).max() <= 1e-13, op_modes


def _embedded(op, op_modes, modes, dims):
    """``op`` (little-endian over ``op_modes``) tensored with the identity on the other modes.

    Built as one einsum over per-mode axes, independently of ``embed`` and of
    the kernel under test; the joint index is little-endian over ``modes``.
    """
    M = len(modes)
    pos = [modes.index(m) for m in reversed(op_modes)]  # slowest op digit first
    # einsum labels: i is mode i's output digit, M + i its input digit
    operands = [op.reshape([dims[i] for i in pos] * 2), pos + [M + i for i in pos]]
    for i in range(M):
        if i not in pos:
            operands += [np.eye(dims[i]), [i, M + i]]
    slowest_first = list(reversed(range(M)))
    dim = int(np.prod(dims))
    return np.einsum(*operands, slowest_first + [M + i for i in slowest_first]).reshape(dim, dim)


def test_apply_matrix_with_mixed_mode_dimensions_equals_embedded_operator():
    rng = np.random.default_rng(3)
    modes, dims = ("x", "y", "z"), (3, 5, 2)
    dim = int(np.prod(dims))
    members = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    for op_modes in itertools.permutations(modes, 2):
        d1, d2 = (dims[modes.index(m)] for m in op_modes)
        # max(d1, d2) random slots of min(d1, d2) states, as an element's
        L = min(d1, d2)
        idx = rng.permutation(d1 * d2).reshape(-1, L)
        blocks = rng.normal(size=(len(idx), L, L))
        dense = np.zeros((d1 * d2, d1 * d2))
        for row, block in zip(idx, blocks):
            dense[np.ix_(row, row)] = block
        full = _embedded(dense, op_modes, modes, dims)
        for arr in (members, members[:, 0]):
            for ops in ((idx, blocks), (np.arange(len(dense))[None], dense[None])):
                out = apply_matrix(arr, modes, dims, ops, op_modes)
                assert out.shape == arr.shape
                assert np.abs(out - full @ arr).max() <= 1e-13, op_modes
    # at equal dimensions the reference is the uniform ``embed``
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for op_modes in itertools.permutations(modes, 2):
        want = embed(m, op_modes, modes, 3)
        assert np.abs(_embedded(m, op_modes, modes, (3, 3, 3)) - want).max() <= 1e-15


def test_apply_unitary_preserves_norm():
    rng = np.random.default_rng(11)
    from scipy.stats import unitary_group

    u = unitary_group.rvs(6, random_state=rng)

    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    out = apply(u, ("a",), ("a",), vec)
    assert np.vdot(out, out).real == pytest.approx(np.vdot(vec, vec).real, abs=1e-10)


def test_apply_rejects_a_matrix_that_does_not_fit_its_modes():
    state = tensor(vacuum(3), vacuum(3))
    modes = ("x", "y")
    for bad in (np.eye(9)[:, :8], np.eye(3), np.eye(27)):
        with pytest.raises(DimensionMismatchError):
            apply(bad, ("x", "y"), modes, state)
    with pytest.raises(ValueError, match="duplicate"):
        apply(np.eye(9), ("x", "x"), modes, state)
    with pytest.raises(UnknownModeError):
        apply(np.eye(3), ("z",), modes, state)
    with pytest.raises(DimensionMismatchError):  # 10 rows are no d**2
        apply(np.eye(3), ("x",), modes, np.ones(10, dtype=complex))


def test_expectation_number_coherent():
    alpha = coherent_state(1.0, 20)
    assert expectation(number_matrix(20), ("a",), ("a",), alpha).real == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_vacuum_ancilla_is_identity_on_rest():
    with pytest.warns(UserWarning, match="truncation may be inadequate"):
        alpha = coherent_state(0.7, 4)
    joint = tensor(alpha, vacuum(4))
    red = partial_trace(joint, ("a", "anc"), ("a",))
    assert np.allclose(red, to_mixed(alpha), atol=1e-12)


def test_partial_trace_bell_like():
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1 / np.sqrt(2)  # (|1,0> + |0,1>)/sqrt(2)
    red = partial_trace(v, ("p", "q"), ("p",))
    assert np.allclose(red, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    for keep in (("x",), ("y", "z"), ("z", "x")):
        red = partial_trace(rho, ("x", "y", "z"), keep)
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(red).min() >= -1e-9


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError):
        partial_trace(tensor(vacuum(2), vacuum(2)), ("a", "b"), ())
    with pytest.raises(UnknownModeError):
        partial_trace(tensor(vacuum(2), vacuum(2)), ("a", "b"), ("c",))
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(10, dtype=complex), ("a", "b"), ("a",))


def test_partial_trace_respects_requested_order():
    rng = np.random.default_rng(9)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    modes = ("x", "y", "z")
    xy = partial_trace(vec, modes, ("x", "y"))
    yx = partial_trace(vec, modes, ("y", "x"))
    swap = np.arange(4).reshape(2, 2).T.reshape(-1)
    assert np.allclose(yx, xy[np.ix_(swap, swap)], atol=1e-12)


def test_mixed_state_hermiticity_validation():
    # a density matrix is checked where it is read: by wigner and by fidelity
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    good = np.diag([0.5, 0.5]).astype(complex)
    for check in (wigner, lambda x: fidelity(good, x), lambda x: fidelity(x, good),
                  lambda x: fidelity(vacuum(2), x)):
        with pytest.raises(ValueError, match="not Hermitian"):
            check(bad)
    # within the tolerance, relative to a trace above 1
    almost = np.array([[3.0, 1e-10], [0.0, 1.0]], dtype=complex)
    assert 0.0 < fidelity(vacuum(2), almost) < 1.0


def test_state_dimension_mismatch_is_rejected():
    # kets are 1-D and density matrices square, both on the reference's levels
    rho3, ket3 = np.eye(3, dtype=complex) / 3, vacuum(3)
    for bad in (np.ones((3, 2), dtype=complex), np.ones((3, 3, 3), dtype=complex)):
        with pytest.raises(DimensionMismatchError):
            wigner(bad)
        with pytest.raises(DimensionMismatchError):
            fidelity(ket3, bad)
    for ref, state in ((ket3, vacuum(4)), (rho3, vacuum(4)), (vacuum(4), rho3),
                       (rho3, np.eye(4, dtype=complex))):
        with pytest.raises(DimensionMismatchError):
            fidelity(ref, state)


def test_little_endian_flat_indexing():
    state = tensor(fock_state(1, 3), fock_state(2, 3))
    # occupation (n0, n1) = (1, 2) -> index 1 + 2*3 = 7
    assert np.argmax(np.abs(state)) == 7


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
def test_partial_trace_positive_on_random_pure(d, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    red = partial_trace(vec, ("u", "v"), ("u",))
    assert np.linalg.eigvalsh(red).min() >= -1e-9
    assert np.trace(red).real == pytest.approx(np.vdot(vec, vec).real, rel=1e-12)
