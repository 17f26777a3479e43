"""Truncated Fock-space linear algebra: states, operators, their application and reduction.

Every mode of a state is truncated to the same dimension ``d`` (levels
0..d-1).  Multimode amplitudes are stored as flat vectors with little-endian
mode indexing: for a state over ``modes = (m0, m1, ..., m_{M-1})`` the basis
index of the occupation ``(n0, n1, ..., n_{M-1})`` is
``n0 + n1*d + n2*d**2 + ...``, i.e. the first listed mode is the
fastest-varying digit.

States are immutable value objects; all operations here are pure functions.
An operator is a plain complex ndarray: :func:`apply` takes the matrix
together with the modes it acts on, and the elementary matrices come back as
arrays.  :func:`apply` and :func:`partial_trace` are plain numpy contractions
(the brute-force oracle's algebra); :func:`apply_matrix` is the staged
engine's kernel only, which takes a real block-diagonal operator as one
``(idx, blocks)`` stack and one dimension per mode, for its per-mode cutoffs,
and reaches the operator's digits through transposed views.
Unnormalized states are first class: ``norm_tag`` / ``trace_tag`` record the
carried weight, which downstream conditioning probabilities are ratios of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Cutoff",
    "PureState",
    "MixedState",
    "DimensionMismatchError",
    "UnknownModeError",
    "annihilation_matrix",
    "truncated_commutator",
    "apply",
    "partial_trace",
    "tensor",
    "to_mixed",
]

NORM_TAG_TOL = 1e-12
HERMITICITY_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operator and state dimensions (or cutoffs/modes) do not match."""


class UnknownModeError(KeyError):
    """A referenced mode label is not part of the state/operator."""


@dataclass(frozen=True)
class Cutoff:
    """Number of retained Fock levels per mode (levels 0..d-1)."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, (int, np.integer)) or self.d < 2:
            raise ValueError(f"cutoff must be an integer >= 2, got {self.d!r}")


def _as_modes(modes: Iterable[str]) -> tuple[str, ...]:
    out = tuple(modes)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate mode labels in {out}")
    return out


@dataclass(frozen=True)
class PureState:
    """Amplitude vector over ``cutoff.d ** len(modes)`` basis states.

    ``norm_tag`` is the squared norm actually carried by ``amps`` (may be < 1
    for heralded, unnormalized branches).
    """

    modes: tuple[str, ...]
    cutoff: Cutoff
    amps: np.ndarray
    norm_tag: float

    @classmethod
    def create(cls, modes: Iterable[str], cutoff: Cutoff, amps: np.ndarray) -> "PureState":
        modes = _as_modes(modes)
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        expected = cutoff.d ** len(modes)
        if amps.size != expected:
            raise DimensionMismatchError(
                f"amplitude vector has {amps.size} entries, expected {expected}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        return cls(modes, cutoff, amps, float((np.abs(amps) ** 2).sum()))

    def __post_init__(self) -> None:
        actual = float((np.abs(self.amps) ** 2).sum())
        if abs(actual - self.norm_tag) > NORM_TAG_TOL * max(1.0, actual):
            raise ValueError(f"norm_tag {self.norm_tag} != actual {actual}")

    def mode_index(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise UnknownModeError(mode) from None


@dataclass(frozen=True)
class MixedState:
    """Density matrix over the joint truncated space, possibly unnormalized."""

    modes: tuple[str, ...]
    cutoff: Cutoff
    matrix: np.ndarray
    trace_tag: float

    @classmethod
    def create(cls, modes: Iterable[str], cutoff: Cutoff, matrix: np.ndarray) -> "MixedState":
        modes = _as_modes(modes)
        matrix = np.asarray(matrix, dtype=np.complex128)
        expected = cutoff.d ** len(modes)
        if matrix.shape != (expected, expected):
            raise DimensionMismatchError(
                f"density matrix has shape {matrix.shape}, expected {(expected, expected)}"
            )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        return cls(modes, cutoff, matrix, float(matrix.trace().real))

    def __post_init__(self) -> None:
        tr = float(self.matrix.trace().real)
        scale = max(1.0, abs(tr))
        if abs(tr - self.trace_tag) > NORM_TAG_TOL * scale:
            raise ValueError(f"trace_tag {self.trace_tag} != actual {tr}")
        herm = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if herm > HERMITICITY_TOL * scale:
            raise ValueError(f"density matrix not Hermitian (deviation {herm})")

    def mode_index(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise UnknownModeError(mode) from None


State = PureState | MixedState


# ---------------------------------------------------------------------------
# elementary single-mode operators


def annihilation_matrix(cutoff: Cutoff) -> np.ndarray:
    """Matrix of a with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, cutoff.d, dtype=np.float64)), k=1).astype(np.complex128)


def truncated_commutator(cutoff: Cutoff) -> np.ndarray:
    """a·a† − a†·a on the truncated space: diag(1, ..., 1, -(d-1))."""
    a = annihilation_matrix(cutoff)
    ad = a.conj().T
    return a @ ad - ad @ a


# ---------------------------------------------------------------------------
# application


def apply_matrix(
    arr: np.ndarray,
    state_modes: Sequence[str],
    dims: Sequence[int],
    sectors: tuple[np.ndarray, np.ndarray],
    op_modes: Sequence[str],
) -> np.ndarray:
    """Apply a real block-diagonal operator on ``op_modes`` to the ket digits of a flat array.

    ``dims[i]`` is the number of levels kept on ``state_modes[i]``; the modes
    may differ.  ``arr`` is complex128 of shape ``(prod(dims),)`` or
    ``(prod(dims), X)`` with little-endian digits over ``state_modes``;
    trailing axes (e.g. the bra side of a density matrix) ride along
    untouched.  The operator is given as its equally sized sectors ``(idx,
    blocks)``: ``idx`` is an ``(n, L)`` int array whose rows partition the
    basis indices of the operator space (little-endian over ``op_modes``, each
    at its own dimension), and ``blocks`` the real ``(n, L, L)`` stack of the
    operator restricted to them, for an element unitary the stack of its
    slots.  Each slot's rows are gathered through a transposed view of the
    array with the op digits leading, multiplied as one stacked real product
    on their interleaved (re, im) pairs, ``blocks @ x[idx]``, and written
    through the same view of one fresh array.
    """
    M = len(state_modes)
    # C order makes the first axis the slowest digit: mode i is axis M-1-i
    lead = [M - 1 - state_modes.index(m) for m in reversed(op_modes)]
    axes = lead + [a for a in range(M + 1) if a not in lead]
    shape = tuple(reversed(dims)) + (-1,)
    idx, blocks = sectors
    digits = np.unravel_index(idx, [dims[M - 1 - a] for a in lead])
    x = arr.reshape(shape).transpose(axes)[digits]
    y = blocks @ x.reshape(idx.shape + (-1,)).view(np.float64)
    out = np.empty_like(arr)
    out.reshape(shape).transpose(axes)[digits] = y.view(np.complex128).reshape(x.shape)
    return out


def apply(matrix: np.ndarray, modes: Iterable[str], state: State) -> State:
    """Apply the matrix acting on ``modes`` (little-endian) to a state: O|ψ⟩ or O ρ O†."""
    modes = _as_modes(modes)
    M, d, k = len(state.modes), state.cutoff.d, len(modes)
    # C order makes the first axis the slowest digit: mode i is axis M-1-i
    axes = [M - 1 - state.mode_index(m) for m in reversed(modes)]
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (d**k, d**k):
        raise DimensionMismatchError(f"operator has shape {matrix.shape}, expected {(d**k, d**k)}")
    op = matrix.reshape((d,) * (2 * k))

    def on_ket(arr: np.ndarray) -> np.ndarray:  # shaped (d**M,) or (d**M, X)
        out = np.tensordot(op, arr.reshape((d,) * M + arr.shape[1:]), axes=(range(k, 2 * k), axes))
        return np.moveaxis(out, range(k), axes).reshape(arr.shape)

    if isinstance(state, PureState):
        return PureState.create(state.modes, state.cutoff, on_ket(state.amps))
    both = on_ket(on_ket(state.matrix).conj().T).conj().T
    return MixedState.create(state.modes, state.cutoff, both)


def tensor(s1: State, s2: State) -> State:
    """Joint state over s1.modes + s2.modes (little-endian: s1 digits fastest)."""
    if s1.cutoff != s2.cutoff:
        raise DimensionMismatchError("tensor requires equal cutoffs")
    modes = _as_modes(tuple(s1.modes) + tuple(s2.modes))
    if isinstance(s1, PureState) and isinstance(s2, PureState):
        # index = i1 + dim1 * i2  ->  kron(amps2, amps1)
        amps = np.kron(s2.amps, s1.amps)
        return PureState.create(modes, s1.cutoff, amps)
    r1 = to_mixed(s1).matrix
    r2 = to_mixed(s2).matrix
    return MixedState.create(modes, s1.cutoff, np.kron(r2, r1))


def to_mixed(state: State) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState.create(state.modes, state.cutoff, np.outer(state.amps, state.amps.conj()))


def partial_trace(state: State, keep_modes: Iterable[str]) -> MixedState:
    """Reduced density matrix over ``keep_modes``, in that order (trace preserved)."""
    keep = _as_modes(keep_modes)
    if not keep:
        raise ValueError("keep_modes must be nonempty")
    kept = [state.mode_index(m) for m in reversed(keep)]
    M, d = len(state.modes), state.cutoff.d
    # mode i is ket axis M-1-i and bra axis 2M-1-i, labelled i and M+i; a
    # traced mode's bra reuses its ket label, so einsum sums that diagonal
    ket = list(range(M - 1, -1, -1))
    bra = [M + i if i in kept else i for i in ket]
    rho = to_mixed(state).matrix.reshape((d,) * (2 * M))
    out = np.einsum(rho, ket + bra, kept + [M + i for i in kept])
    return MixedState.create(keep, state.cutoff, out.reshape(d ** len(keep), -1))
