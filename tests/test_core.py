import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qocsim.core import (
    Cutoff,
    DimensionMismatchError,
    MixedState,
    PureState,
    UnknownModeError,
    annihilation_matrix,
    apply,
    apply_matrix,
    partial_trace,
    state_to_json_dict,
    tensor,
    to_mixed,
    truncated_commutator,
)
from qocsim.elements import coherent_state, fock_state, vacuum
from reference import creation_matrix, embed, expectation, inner_product, number_matrix


def test_cutoff_requires_at_least_two_levels():
    with pytest.raises(ValueError):
        Cutoff(1)
    Cutoff(2)


def test_annihilation_d2_matrix():
    a = annihilation_matrix(Cutoff(2))
    assert np.allclose(a, [[0, 1], [0, 0]])


def test_annihilation_entries_sqrt_n():
    a = annihilation_matrix(Cutoff(4))
    assert a[2, 3] == pytest.approx(np.sqrt(3), abs=1e-12)


def test_annihilation_kills_vacuum():
    a = annihilation_matrix(Cutoff(5))
    out = apply(a, ("a",), vacuum(Cutoff(5)))
    assert np.allclose(out.amps, 0)


def test_creation_basics():
    c2 = Cutoff(2)
    out = apply(creation_matrix(c2), ("a",), vacuum(c2))
    assert np.allclose(out.amps, [0, 1])
    # top level leaks to zero
    c3 = Cutoff(3)
    out = apply(creation_matrix(c3), ("a",), fock_state(2, c3))
    assert np.allclose(out.amps, 0)
    assert creation_matrix(Cutoff(5))[4, 3] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("d", list(range(2, 65)))
def test_truncated_commutator_structure(d):
    comm = truncated_commutator(Cutoff(d))
    expected = np.diag(np.concatenate([np.ones(d - 1), [-(d - 1.0)]]))
    assert np.max(np.abs(comm - expected)) <= 1e-12


def test_embed_identity_is_identity():
    c = Cutoff(3)
    out = embed(np.eye(3), ("x",), ("x", "y"), c)
    assert np.allclose(out, np.eye(9))


def test_embed_annihilation_first_mode():
    c = Cutoff(3)
    st11 = tensor(fock_state(1, c, "m0"), fock_state(1, c, "m1"))
    op = embed(annihilation_matrix(c), ("m0",), ("m0", "m1"), c)
    out = apply(op, ("m0", "m1"), st11)
    # |1,1> -> |0,1>: flat index 0 + 3*1 = 3
    expected = np.zeros(9)
    expected[3] = 1
    assert np.allclose(out.amps, expected)


def test_embed_disjoint_supports_commute():
    c = Cutoff(3)
    a = annihilation_matrix(c)
    first = embed(a, ("m0",), ("m0", "m1"), c)
    last = embed(a, ("m1",), ("m0", "m1"), c)
    assert np.allclose(first @ last, last @ first)


def test_embed_respects_composition():
    c = Cutoff(4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ex = embed(x, ("p",), ("p", "q"), c)
    ey = embed(y, ("p",), ("p", "q"), c)
    exy = embed(x @ y, ("p",), ("p", "q"), c)
    assert np.allclose(ex @ ey, exy, atol=1e-12)


def test_embed_unknown_mode_and_dim_mismatch():
    c = Cutoff(3)
    with pytest.raises(UnknownModeError):
        embed(annihilation_matrix(c), ("z",), ("x", "y"), c)
    with pytest.raises(DimensionMismatchError):
        embed(annihilation_matrix(Cutoff(4)), ("x",), ("x", "y"), c)


def test_two_mode_embed_matches_kron_convention():
    c = Cutoff(3)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    full = embed(m, ("x", "y"), ("x", "y", "z"), c)
    assert np.allclose(full, np.kron(np.eye(3), m))
    # embedding with the pair reversed permutes the operator's own digits
    full_rev = embed(m, ("y", "x"), ("x", "y", "z"), c)
    perm = m.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
    assert np.allclose(full_rev, np.kron(np.eye(3), perm))


@pytest.mark.parametrize("d", [3, 4])
def test_apply_matrix_sectors_equal_their_block_diagonal_matrix(d):
    c = Cutoff(d)
    rng = np.random.default_rng(d)
    # a random partition of the pair space into d pieces of d states, as one
    # (idx, blocks) stack
    idx = rng.permutation(d * d).reshape(d, d)
    blocks = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
    dense = np.zeros((d * d, d * d), dtype=np.complex128)
    for row, block in zip(idx, blocks):
        dense[np.ix_(row, row)] = block
    modes = ("x", "y", "z")
    members = rng.normal(size=(d**3, 5)) + 1j * rng.normal(size=(d**3, 5))
    for op_modes in itertools.permutations(modes, 2):
        full = embed(dense, op_modes, modes, c)
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
        blocks = rng.normal(size=(len(idx), L, L)) + 1j * rng.normal(size=(len(idx), L, L))
        dense = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
        for row, block in zip(idx, blocks):
            dense[np.ix_(row, row)] = block
        full = _embedded(dense, op_modes, modes, dims)
        for arr in (members, members[:, 0]):
            for ops in ((idx, blocks), (np.arange(len(dense))[None], dense[None])):
                out = apply_matrix(arr, modes, dims, ops, op_modes)
                assert out.shape == arr.shape
                assert np.abs(out - full @ arr).max() <= 1e-13, op_modes
    # at equal dimensions the reference is the uniform ``embed``
    c = Cutoff(3)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for op_modes in itertools.permutations(modes, 2):
        want = embed(m, op_modes, modes, c)
        assert np.abs(_embedded(m, op_modes, modes, (3, 3, 3)) - want).max() <= 1e-15


def test_apply_unitary_preserves_norm():
    c = Cutoff(6)
    rng = np.random.default_rng(11)
    from scipy.stats import unitary_group

    u = unitary_group.rvs(6, random_state=rng)

    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = PureState.create(("a",), c, vec)
    out = apply(u, ("a",), state)
    assert out.norm_tag == pytest.approx(state.norm_tag, abs=1e-10)


def test_apply_rejects_a_matrix_that_does_not_fit_its_modes():
    c = Cutoff(3)
    state = tensor(vacuum(c, "x"), vacuum(c, "y"))
    for bad in (np.eye(9)[:, :8], np.eye(3), np.eye(27)):
        with pytest.raises(DimensionMismatchError):
            apply(bad, ("x", "y"), state)
    with pytest.raises(ValueError, match="duplicate mode"):
        apply(np.eye(9), ("x", "x"), state)
    with pytest.raises(UnknownModeError):
        apply(np.eye(3), ("z",), state)


def test_expectation_number_coherent():
    c = Cutoff(20)
    alpha = coherent_state(1.0, c)
    assert expectation(number_matrix(c), ("a",), alpha).real == pytest.approx(1.0, abs=1e-9)


def test_inner_product_equals_norm_tag():
    c = Cutoff(5)
    rng = np.random.default_rng(2)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    state = PureState.create(("a",), c, vec)
    assert inner_product(state, state).real == pytest.approx(state.norm_tag, abs=1e-12)


def test_partial_trace_vacuum_ancilla_is_identity_on_rest():
    c = Cutoff(4)
    alpha = coherent_state(0.7, c, "a")
    joint = tensor(alpha, vacuum(c, "anc"))
    red = partial_trace(joint, ("a",))
    assert np.allclose(red.matrix, to_mixed(alpha).matrix, atol=1e-12)


def test_partial_trace_bell_like():
    c = Cutoff(2)
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1 / np.sqrt(2)  # (|1,0> + |0,1>)/sqrt(2)
    state = PureState.create(("p", "q"), c, v)
    red = partial_trace(state, ("p",))
    assert np.allclose(red.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_preserves_trace_and_positivity():
    c = Cutoff(3)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    state = MixedState.create(("x", "y", "z"), c, rho)
    for keep in (("x",), ("y", "z"), ("z", "x")):
        red = partial_trace(state, keep)
        assert red.trace_tag == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(red.matrix).min() >= -1e-9


def test_partial_trace_empty_keep_rejected():
    c = Cutoff(2)
    with pytest.raises(ValueError):
        partial_trace(tensor(vacuum(c, "a"), vacuum(c, "b")), ())


def test_partial_trace_respects_requested_order():
    c = Cutoff(2)
    rng = np.random.default_rng(9)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = PureState.create(("x", "y", "z"), c, vec)
    xy = partial_trace(state, ("x", "y")).matrix
    yx = partial_trace(state, ("y", "x")).matrix
    swap = np.arange(4).reshape(2, 2).T.reshape(-1)
    assert np.allclose(yx, xy[np.ix_(swap, swap)], atol=1e-12)


def test_norm_tag_validation():
    c = Cutoff(2)
    with pytest.raises(ValueError):
        PureState(("a",), c, np.array([1.0, 0.0], dtype=complex), 0.5)


def test_mixed_state_hermiticity_validation():
    c = Cutoff(2)
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        MixedState.create(("a",), c, bad)


def test_little_endian_flat_indexing():
    c = Cutoff(3)
    state = tensor(fock_state(1, c, "m0"), fock_state(2, c, "m1"))
    # occupation (n0, n1) = (1, 2) -> index 1 + 2*3 = 7
    assert np.argmax(np.abs(state.amps)) == 7


def test_json_round_trip_pure_and_mixed(tmp_path):
    # the CLI's state files, read back with json alone
    c = Cutoff(3)
    rng = np.random.default_rng(13)
    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    pure = PureState.create(("a", "b"), c, vec)
    mixed = to_mixed(pure)
    for state, kind, want in ((pure, "pure", pure.amps), (mixed, "mixed", mixed.matrix)):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(state_to_json_dict(state)))
        doc = json.loads(path.read_text())
        assert doc["kind"] == kind and doc["modes"] == ["a", "b"] and doc["cutoff"] == 3
        back = np.array([complex(re, im) for re, im in doc["data"]]).reshape(want.shape)
        assert np.array_equal(back, want)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
def test_partial_trace_positive_on_random_pure(d, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    state = PureState.create(("u", "v"), Cutoff(d), vec)
    red = partial_trace(state, ("u",))
    assert np.linalg.eigvalsh(red.matrix).min() >= -1e-9
    assert red.trace_tag == pytest.approx(state.norm_tag, rel=1e-12)
