"""Reference implementations the tests compare qocsim against.

None of these is on a product path, so they live with the tests: dense
operator algebra on a uniform cutoff, heralded conditioning of a state, the
pattern probabilities and density matrix of an ensemble, closed-form Wigner
values of Gaussian states and single-point Wigner evaluation.  Each is written
directly from its definition and serves as an oracle; ``output_value`` and
``normalized_branch`` are lookup helpers.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from qocsim.core import (
    Cutoff,
    DimensionMismatchError,
    MixedState,
    PureState,
    State,
    UnknownModeError,
    annihilation_matrix,
    apply,
)
from qocsim.measurement import ZeroProbabilityError, povm_diagonal
from qocsim.phasespace import _geometry, _normalized_rho, _wigner_values

ZERO_PROBABILITY_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# dense operator algebra


def creation_matrix(cutoff: Cutoff) -> np.ndarray:
    """Matrix of a† (transpose of a); the top level annihilates (truncation leak)."""
    return annihilation_matrix(cutoff).T


def number_matrix(cutoff: Cutoff) -> np.ndarray:
    return np.diag(np.arange(cutoff.d, dtype=np.float64)).astype(np.complex128)


def embed(
    op: np.ndarray,
    target_modes: Iterable[str],
    full_modes: Iterable[str],
    cutoff: Cutoff,
) -> np.ndarray:
    """Tensor the matrix ``op`` (acting on ``target_modes``) with identity on the rest.

    The result's index ordering follows ``full_modes`` little-endian.
    """
    target = tuple(target_modes)
    full = tuple(full_modes)
    for m in target:
        if m not in full:
            raise UnknownModeError(m)
    d = cutoff.d
    if op.shape[0] != d ** len(target):
        raise DimensionMismatchError(
            f"operator dim {op.shape[0]} != d^{len(target)} = {d ** len(target)}"
        )
    M = len(full)
    # start with modes ordered (target..., rest...), target digits fastest,
    # then permute axes into the requested full order
    rest = [m for m in full if m not in target]
    interim = list(target) + rest
    big = np.kron(np.eye(d ** len(rest), dtype=np.complex128), op)
    big_t = big.reshape((d,) * (2 * M))
    perm = [M - 1 - interim.index(m) for m in reversed(full)]
    return big_t.transpose(perm + [M + p for p in perm]).reshape(d**M, d**M)


def expectation(op: np.ndarray, modes: Iterable[str], state: State) -> complex:
    """⟨ψ|O|ψ⟩ or Tr[ρ O] of ``op`` on ``modes``, with the state's carried (unnormalized) weight."""
    if isinstance(state, PureState):
        return complex(np.vdot(state.amps, apply(op, modes, state).amps))
    full = embed(op, modes, state.modes, state.cutoff)
    return complex(np.trace(state.matrix @ full))


def inner_product(s1: PureState, s2: PureState) -> complex:
    """⟨s1|s2⟩."""
    if s1.modes != s2.modes or s1.cutoff != s2.cutoff:
        raise DimensionMismatchError("inner_product requires identical modes and cutoff")
    return complex(np.vdot(s1.amps, s2.amps))


# ---------------------------------------------------------------------------
# heralded conditioning and pattern probabilities


def condition(state: State, mode: str, element: np.ndarray) -> tuple[State, float]:
    """Condition on a diagonal POVM element at ``mode`` and trace that mode out.

    Returns the unnormalized conditional state (its carried weight equals the
    outcome probability relative to the input weight) and that probability.
    For a rank-one outcome on a pure state the conditional branch stays pure.
    Raises :class:`ZeroProbabilityError` on vanishing outcomes and
    ``ValueError`` for an element that is not diagonal in the Fock basis.
    """
    if not np.allclose(element, np.diag(np.diag(element)), atol=1e-14):
        raise ValueError("condition needs a POVM element diagonal in the Fock basis")
    d = state.cutoff.d
    diag = np.real(np.diag(element))
    # moving `mode` to the front keeps the relative digit order of the other
    # modes, so the slices below are already laid out for `remaining`
    remaining = tuple(m for m in state.modes if m != mode)
    M = len(state.modes)
    axis = M - 1 - state.mode_index(mode)  # C order reverses the digits

    if isinstance(state, PureState):
        t = np.moveaxis(state.amps.reshape((d,) * M), axis, 0).reshape(d, -1)
        prob = float(np.sum(diag * np.sum(np.abs(t) ** 2, axis=1)))
        _check_prob(prob, state.norm_tag)
        support = np.nonzero(diag > 0)[0]
        if support.size == 1:
            n = int(support[0])
            return PureState.create(remaining, state.cutoff, np.sqrt(diag[n]) * t[n]), prob
        rho = np.einsum("n,ni,nj->ij", diag, t, t.conj())
        return MixedState.create(remaining, state.cutoff, rho), prob

    # Tr_mode[E ρ] with diagonal E: weight each (n, n) block
    t = np.moveaxis(state.matrix.reshape((d,) * (2 * M)), (axis, M + axis), (0, 1))
    rest = d ** (M - 1)
    rho = np.einsum("n,nnij->ij", diag, t.reshape(d, d, rest, rest))
    prob = float(np.real(np.trace(rho)))
    _check_prob(prob, state.trace_tag)
    return MixedState.create(remaining, state.cutoff, rho), prob


def _check_prob(prob: float, weight: float) -> None:
    if prob <= ZERO_PROBABILITY_FLOOR * max(weight, 1.0):
        raise ZeroProbabilityError(
            f"conditioning outcome has vanishing probability ({prob:.3e})"
        )


def pattern_probability(ensemble, heralds: Mapping[str, tuple]) -> float:
    """Tr[ρ ⊗ᵢ Eᵢ] of an engine ``Ensemble``, the identity on modes without a herald.

    ``heralds`` maps a mode to its herald's fields (requirement, count, η,
    on-off).  The joint diagonal is the Kronecker product of every mode's
    POVM diagonal, read against the ensemble's joint populations without
    densifying ρ.
    """
    joint = np.ones(1)
    for m, d in zip(ensemble.modes, ensemble.dims):  # later modes are slower digits
        e = povm_diagonal(*heralds[m], d) if m in heralds else np.ones(d)
        joint = np.kron(e, joint)
    members = ensemble.members
    return float(joint @ np.sum(members.real**2 + members.imag**2, axis=1))


def ensemble_to_mixed(ensemble) -> MixedState:
    """The density matrix Σₖ |vₖ⟩⟨vₖ| of an engine ``Ensemble`` at one cutoff on every mode.

    With charge signs every element between distinct charges is dropped, as
    the ensemble's own ``reduced`` does.
    """
    m = ensemble.members
    rho = m @ m.conj().T
    if ensemble.signs is not None:
        q = ensemble._charges()
        rho[q[:, None] != q] = 0.0
    return MixedState.create(ensemble.modes, Cutoff(max(ensemble.dims)), rho)


# ---------------------------------------------------------------------------
# Wigner values


def gaussian_wigner_oracle(kind: str, params, beta: complex) -> float:
    """Closed-form W(β) for Gaussian reference states.

    kind='coherent': params = α;  W = (2/π)·exp(−2|β−α|²).
    kind='thermal':  params = n̄;  W = 2/(π(2n̄+1))·exp(−2|β|²/(2n̄+1)).
    """
    if kind == "coherent":
        alpha = complex(params)
        return float(2.0 / np.pi * np.exp(-2.0 * abs(beta - alpha) ** 2))
    if kind == "thermal":
        nbar = float(params)
        width = 2.0 * nbar + 1.0
        return float(2.0 / (np.pi * width) * np.exp(-2.0 * abs(beta) ** 2 / width))
    raise ValueError(f"unknown Gaussian kind {kind!r}")


def parity_expectation(state: State) -> float:
    """⟨Π⟩ from photon-number populations of the state normalized to unit trace."""
    pops = np.real(np.diag(_normalized_rho(state)))
    return float(np.sum((-1.0) ** np.arange(pops.size) * pops))


def wigner_point(state: State, beta: complex) -> float:
    """W at one phase-space point of the state normalized to unit trace (the grid kernel on one β)."""
    return float(_wigner_values(_normalized_rho(state), _geometry(np.array([complex(beta)])))[0])


# ---------------------------------------------------------------------------
# helpers


def normalized_branch(result, which: str) -> MixedState:
    """A ``SchemeResult``'s ``'pd1'`` or ``'pd2'`` branch state, normalized to unit trace."""
    rho = getattr(result, f"{which}_branch")
    return MixedState.create(rho.modes, rho.cutoff, rho.matrix / rho.trace_tag)


def output_value(result, kind: str, mode: str | None = None):
    """The value of an execution result's first output of ``kind`` (on ``mode``, if given)."""
    for out, value in zip(result.plan.spec.outputs, result.outputs):
        if out.kind == kind and (mode is None or out.mode == mode):
            return value
    raise KeyError(f"no {kind!r} output for mode {mode!r}")
