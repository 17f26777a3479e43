"""Truncated Fock-space linear algebra: states, operators, their application and reduction.

Every mode of a state is truncated to the same dimension ``d`` (levels
0..d-1); only the kernel :func:`apply_matrix` also takes one dimension per
mode, for the staged executor's per-mode cutoffs.  Multimode amplitudes are
stored as flat vectors with little-endian mode indexing: for a state over
``modes = (m0, m1, ..., m_{M-1})`` the basis index of the occupation
``(n0, n1, ..., n_{M-1})`` is ``n0 + n1*d + n2*d**2 + ...``, i.e. the first
listed mode is the fastest-varying digit.  This ordering is fixed so that saved
states are portable.

States are immutable value objects; all operations here are pure functions.
An operator is a plain complex ndarray: :func:`apply` takes the matrix
together with the modes it acts on, and the elementary matrices come back as
arrays.  Unnormalized states are first class: ``norm_tag`` / ``trace_tag``
record the carried weight, which downstream conditioning probabilities are
ratios of.
"""

from __future__ import annotations

import math
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
    "state_to_json_dict",
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
        return cls(modes, cutoff, amps, float(np.sum(np.abs(amps) ** 2)))

    def __post_init__(self) -> None:
        actual = float(np.sum(np.abs(self.amps) ** 2))
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
        return cls(modes, cutoff, matrix, float(np.real(np.trace(matrix))))

    def __post_init__(self) -> None:
        tr = float(np.real(np.trace(self.matrix)))
        scale = max(1.0, abs(tr))
        if abs(tr - self.trace_tag) > NORM_TAG_TOL * scale:
            raise ValueError(f"trace_tag {self.trace_tag} != actual {tr}")
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
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
    sectors: Sequence[tuple[np.ndarray, np.ndarray]],
    op_modes: Sequence[str],
) -> np.ndarray:
    """Apply a block-diagonal operator on ``op_modes`` to the ket digits of a flat array.

    ``dims[i]`` is the number of levels kept on ``state_modes[i]``; the modes
    may differ.  ``arr`` has shape ``(prod(dims),)`` or ``(prod(dims), X)``
    with little-endian digits over ``state_modes``; trailing axes (e.g. the bra
    side of a density matrix) ride along untouched.  The operator is given as
    groups of equally sized sectors ``(idx, blocks)``: ``idx`` is an ``(n, L)``
    int array whose rows select basis indices of the operator space
    (little-endian over ``op_modes``, each at its own dimension), and
    ``blocks`` the ``(n, L, L)`` stack of the operator restricted to them.
    The rows of all ``idx`` must partition that space; a dense ``N×N`` matrix
    ``mat`` is the single group ``(arange(N)[None], mat[None])``, and an
    element unitary the single group of its slots.  The op digits are brought
    to the front and each group is one stacked matrix product,
    ``out[idx] = blocks @ x[idx]``.
    """
    M = len(state_modes)
    k = len(op_modes)
    trailing = arr.shape[1:]
    # C order makes the first axis the slowest digit, so op_modes[-1] leads
    pos = [state_modes.index(m) for m in reversed(op_modes)]
    axes = [M - 1 - i for i in pos]
    front = np.moveaxis(arr.reshape(tuple(reversed(dims)) + trailing), axes, range(k))
    x = front.reshape(math.prod(dims[i] for i in pos), -1)
    out = np.empty(x.shape, dtype=np.complex128)
    for idx, blocks in sectors:
        out[idx] = blocks @ x[idx]
    out = np.moveaxis(out.reshape(front.shape), range(k), axes)
    return out.reshape(arr.shape)


def apply(matrix: np.ndarray, modes: Iterable[str], state: State) -> State:
    """Apply the matrix acting on ``modes`` (little-endian) to a state: O|ψ⟩ or O ρ O†."""
    modes = _as_modes(modes)
    for m in modes:
        state.mode_index(m)
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = state.cutoff.d ** len(modes)
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"operator has shape {matrix.shape}, expected {(n, n)}")
    dense = [(np.arange(n)[None], matrix[None])]
    dims = (state.cutoff.d,) * len(state.modes)
    if isinstance(state, PureState):
        amps = apply_matrix(state.amps, state.modes, dims, dense, modes)
        return PureState.create(state.modes, state.cutoff, amps)
    ket = apply_matrix(state.matrix, state.modes, dims, dense, modes)
    both = apply_matrix(ket.conj().T, state.modes, dims, dense, modes).conj().T
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
    """Reduced density matrix over ``keep_modes`` (trace preserved)."""
    keep = _as_modes(keep_modes)
    if not keep:
        raise ValueError("keep_modes must be nonempty")
    for m in keep:
        if m not in state.modes:
            raise UnknownModeError(m)
    d = state.cutoff.d
    keep_sorted = tuple(m for m in state.modes if m in keep)
    rho = to_mixed(state)
    drop = [m for m in state.modes if m not in keep]
    cur_modes = list(state.modes)
    cur = rho.matrix
    for m in drop:
        Mcur = len(cur_modes)
        tview = cur.reshape((d,) * (2 * Mcur))
        ax_ket = Mcur - 1 - cur_modes.index(m)
        ax_bra = Mcur + ax_ket
        tview = np.trace(tview, axis1=ax_ket, axis2=ax_bra)
        cur_modes.remove(m)
        dim = d ** len(cur_modes)
        cur = tview.reshape(dim, dim)
    # cur is ordered by cur_modes == keep_sorted; reorder to requested keep order
    if keep_sorted != keep:
        Mk = len(keep)
        tview = cur.reshape((d,) * (2 * Mk))
        perm = [Mk - 1 - keep_sorted.index(m) for m in reversed(keep)]
        perm_full = perm + [Mk + p for p in perm]
        cur = tview.transpose(perm_full).reshape(d**Mk, d**Mk)
    return MixedState.create(keep, state.cutoff, cur)


# ---------------------------------------------------------------------------
# JSON persistence: { modes, cutoff, kind, data: [[re, im], ...] } row-major


def state_to_json_dict(state: State) -> dict:
    if isinstance(state, PureState):
        flat = state.amps
        kind = "pure"
    else:
        flat = state.matrix.reshape(-1)  # row-major
        kind = "mixed"
    return {
        "modes": list(state.modes),
        "cutoff": state.cutoff.d,
        "kind": kind,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }

