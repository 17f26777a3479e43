"""Truncated Fock-space linear algebra: states, operators, composition, conditioning.

Every mode is truncated to the same dimension ``d`` (levels 0..d-1).  Multimode
amplitudes are stored as flat vectors with little-endian mode indexing: for a
state over ``modes = (m0, m1, ..., m_{M-1})`` the basis index of the occupation
``(n0, n1, ..., n_{M-1})`` is ``n0 + n1*d + n2*d**2 + ...``, i.e. the first
listed mode is the fastest-varying digit.  This ordering is fixed so that saved
states are portable.

States are immutable value objects; all operations here are pure functions.
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
    "OperatorMatrix",
    "DimensionMismatchError",
    "UnknownModeError",
    "annihilation_matrix",
    "creation_matrix",
    "number_matrix",
    "identity_matrix",
    "truncated_commutator",
    "embed",
    "apply",
    "compose",
    "expectation",
    "inner_product",
    "normalize",
    "partial_trace",
    "tensor",
    "to_mixed",
    "top_level_population",
    "state_to_json_dict",
    "state_from_json_dict",
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

    @property
    def dim(self) -> int:
        return self.cutoff.d ** len(self.modes)

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to an M-axis tensor; axis j indexes modes[M-1-j]."""
        d = self.cutoff.d
        return self.amps.reshape((d,) * len(self.modes))

    def axis_of(self, mode: str) -> int:
        """numpy axis of ``mode`` in :meth:`tensor_view` (C order reverses digits)."""
        return len(self.modes) - 1 - self.mode_index(mode)

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

    @property
    def dim(self) -> int:
        return self.cutoff.d ** len(self.modes)

    def mode_index(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise UnknownModeError(mode) from None


State = PureState | MixedState


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix acting on ``acting_modes`` (little-endian pair index).

    ``acting_modes`` may be ``None`` for a generic single-mode operator that is
    bound to a concrete mode at :func:`embed` / :func:`apply` time.
    """

    matrix: np.ndarray
    acting_modes: tuple[str, ...] | None = None
    cutoff: Cutoff | None = None

    @classmethod
    def create(
        cls,
        matrix: np.ndarray,
        acting_modes: Iterable[str] | None = None,
        cutoff: Cutoff | None = None,
    ) -> "OperatorMatrix":
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {matrix.shape}")
        modes = _as_modes(acting_modes) if acting_modes is not None else None
        if modes is not None and cutoff is not None:
            if matrix.shape[0] != cutoff.d ** len(modes):
                raise DimensionMismatchError(
                    f"operator dim {matrix.shape[0]} != d^|modes| = {cutoff.d ** len(modes)}"
                )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        return cls(matrix, modes, cutoff)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix.create(self.matrix.conj().T, self.acting_modes, self.cutoff)

    def bound_to(self, modes: Iterable[str]) -> "OperatorMatrix":
        return OperatorMatrix.create(self.matrix, modes, self.cutoff)


# ---------------------------------------------------------------------------
# elementary single-mode operators


def annihilation_matrix(cutoff: Cutoff) -> OperatorMatrix:
    """Matrix of a with <n-1|a|n> = sqrt(n)."""
    d = cutoff.d
    mat = np.diag(np.sqrt(np.arange(1, d, dtype=np.float64)), k=1).astype(np.complex128)
    return OperatorMatrix.create(mat, cutoff=cutoff)


def creation_matrix(cutoff: Cutoff) -> OperatorMatrix:
    """Matrix of a† (transpose of a); the top level annihilates (truncation leak)."""
    return OperatorMatrix.create(annihilation_matrix(cutoff).matrix.T, cutoff=cutoff)


def number_matrix(cutoff: Cutoff) -> OperatorMatrix:
    return OperatorMatrix.create(
        np.diag(np.arange(cutoff.d, dtype=np.float64)).astype(np.complex128), cutoff=cutoff
    )


def identity_matrix(cutoff: Cutoff, n_modes: int = 1) -> OperatorMatrix:
    return OperatorMatrix.create(np.eye(cutoff.d**n_modes, dtype=np.complex128), cutoff=cutoff)


def truncated_commutator(cutoff: Cutoff) -> OperatorMatrix:
    """a·a† − a†·a on the truncated space: diag(1, ..., 1, -(d-1))."""
    a = annihilation_matrix(cutoff).matrix
    ad = a.conj().T
    return OperatorMatrix.create(a @ ad - ad @ a, cutoff=cutoff)


# ---------------------------------------------------------------------------
# composition and application


def _require_bound(op: OperatorMatrix) -> tuple[str, ...]:
    if op.acting_modes is None:
        raise ValueError("operator is not bound to modes; use bound_to(...) or embed(...)")
    return op.acting_modes


def embed(
    op: OperatorMatrix,
    target_modes: Iterable[str],
    full_modes: Iterable[str],
    cutoff: Cutoff,
) -> OperatorMatrix:
    """Tensor ``op`` (acting on ``target_modes``) with identity on the rest.

    The result's index ordering follows ``full_modes`` little-endian.
    """
    target = _as_modes(target_modes)
    full = _as_modes(full_modes)
    for m in target:
        if m not in full:
            raise UnknownModeError(m)
    d = cutoff.d
    if op.matrix.shape[0] != d ** len(target):
        raise DimensionMismatchError(
            f"operator dim {op.matrix.shape[0]} != d^{len(target)} = {d ** len(target)}"
        )
    M = len(full)
    k = len(target)
    if k == 1:
        # kron(A, B) puts B on the fast digit, so iterate modes from last to first
        result = None
        for m in reversed(full):
            factor = op.matrix if m == target[0] else np.eye(d, dtype=np.complex128)
            result = factor if result is None else np.kron(result, factor)
    else:
        # start with modes ordered (target..., rest...), target digits fastest,
        # then permute axes into the requested full order
        rest = [m for m in full if m not in target]
        interim = list(target) + rest
        big = np.kron(np.eye(d ** len(rest), dtype=np.complex128), op.matrix)
        big_t = big.reshape((d,) * (2 * M))
        perm = [M - 1 - interim.index(m) for m in reversed(full)]
        result = big_t.transpose(perm + [M + p for p in perm]).reshape(d**M, d**M)
    return OperatorMatrix.create(result, full, cutoff)


def apply_matrix(
    arr: np.ndarray,
    state_modes: Sequence[str],
    cutoff: Cutoff,
    sectors: Sequence[tuple[np.ndarray | slice, np.ndarray]],
    op_modes: Sequence[str],
) -> np.ndarray:
    """Apply a block-diagonal operator on ``op_modes`` to the ket digits of a flat array.

    ``arr`` has shape ``(d**M,)`` or ``(d**M, X)`` with little-endian digits over
    ``state_modes``; trailing axes (e.g. the bra side of a density matrix) ride
    along untouched.  The operator is given as its sectors ``(idx, block)``:
    ``idx`` selects basis indices of the ``d**k`` operator space (little-endian
    over ``op_modes``) and ``block`` is the operator restricted to them.  The
    ``idx`` must partition that space; a dense matrix ``mat`` is the single
    sector ``(slice(None), mat)``.  The op digits are brought to the front and
    each sector is one matrix product, ``out[idx] = block @ x[idx]``.
    """
    d = cutoff.d
    M = len(state_modes)
    k = len(op_modes)
    trailing = arr.shape[1:]
    # C order makes the first axis the slowest digit, so op_modes[-1] leads
    axes = [M - 1 - state_modes.index(m) for m in reversed(op_modes)]
    front = np.moveaxis(arr.reshape((d,) * M + trailing), axes, range(k))
    x = front.reshape(d**k, -1)
    out = np.empty(x.shape, dtype=np.complex128)
    for idx, block in sectors:
        out[idx] = block @ x[idx]
    out = np.moveaxis(out.reshape(front.shape), range(k), axes)
    return out.reshape((d**M,) + trailing)


def apply(op: OperatorMatrix, state: State) -> State:
    """Apply an operator to a state: O|ψ⟩ or O ρ O†."""
    modes = _require_bound(op)
    for m in modes:
        state.mode_index(m)
    dense = [(slice(None), op.matrix)]
    if isinstance(state, PureState):
        amps = apply_matrix(state.amps, state.modes, state.cutoff, dense, modes)
        return PureState.create(state.modes, state.cutoff, amps)
    ket = apply_matrix(state.matrix, state.modes, state.cutoff, dense, modes)
    both = apply_matrix(ket.conj().T, state.modes, state.cutoff, dense, modes).conj().T
    return MixedState.create(state.modes, state.cutoff, both)


def compose(op1: OperatorMatrix, op2: OperatorMatrix) -> OperatorMatrix:
    """Matrix product op1·op2 (apply op2 first); acting modes must agree."""
    if op1.acting_modes != op2.acting_modes:
        raise DimensionMismatchError(
            f"compose requires identical acting modes, got {op1.acting_modes} vs {op2.acting_modes}"
        )
    if op1.dim != op2.dim:
        raise DimensionMismatchError(f"operator dims differ: {op1.dim} vs {op2.dim}")
    return OperatorMatrix.create(op1.matrix @ op2.matrix, op1.acting_modes, op1.cutoff or op2.cutoff)


def expectation(op: OperatorMatrix, state: State) -> complex:
    """⟨ψ|O|ψ⟩ or Tr[ρ O], using the state's carried (unnormalized) weight."""
    modes = op.acting_modes
    if isinstance(state, PureState):
        if modes is None and len(state.modes) == 1:
            op = op.bound_to(state.modes)
        applied = apply(op, state)
        return complex(np.vdot(state.amps, applied.amps))
    if modes is None and len(state.modes) == 1:
        op = op.bound_to(state.modes)
    full = embed(op, _require_bound(op), state.modes, state.cutoff).matrix
    return complex(np.trace(state.matrix @ full))


def inner_product(s1: PureState, s2: PureState) -> complex:
    """⟨s1|s2⟩."""
    if s1.modes != s2.modes or s1.cutoff != s2.cutoff:
        raise DimensionMismatchError("inner_product requires identical modes and cutoff")
    return complex(np.vdot(s1.amps, s2.amps))


def normalize(state: State) -> tuple[State, float]:
    """Rescale to unit weight; returns (normalized state, discarded weight)."""
    if isinstance(state, PureState):
        w = state.norm_tag
        if w <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return PureState.create(state.modes, state.cutoff, state.amps / np.sqrt(w)), w
    w = state.trace_tag
    if w <= 0.0:
        raise ValueError("cannot normalize a zero-trace state")
    return MixedState.create(state.modes, state.cutoff, state.matrix / w), w


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


def top_level_population(state: State) -> dict[str, float]:
    """Per-mode population of the top retained level, relative to total weight.

    This is the truncation-leak proxy monitored against the leak budget.
    """
    d = state.cutoff.d
    out: dict[str, float] = {}
    if isinstance(state, PureState):
        t = np.abs(state.tensor_view()) ** 2
        total = float(np.sum(t))
        for m in state.modes:
            ax = state.axis_of(m)
            sl = [slice(None)] * t.ndim
            sl[ax] = d - 1
            out[m] = float(np.sum(t[tuple(sl)])) / total if total > 0 else 0.0
        return out
    diag = np.real(np.diag(state.matrix)).reshape((d,) * len(state.modes))
    total = float(np.sum(diag))
    for m in state.modes:
        ax = len(state.modes) - 1 - state.mode_index(m)
        sl = [slice(None)] * diag.ndim
        sl[ax] = d - 1
        out[m] = float(np.sum(diag[tuple(sl)])) / total if total > 0 else 0.0
    return out


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


def state_from_json_dict(doc: dict) -> State:
    modes = tuple(doc["modes"])
    cutoff = Cutoff(int(doc["cutoff"]))
    data = np.array([complex(re, im) for re, im in doc["data"]], dtype=np.complex128)
    if doc["kind"] == "pure":
        return PureState.create(modes, cutoff, data)
    if doc["kind"] == "mixed":
        n = cutoff.d ** len(modes)
        return MixedState.create(modes, cutoff, data.reshape(n, n))
    raise ValueError(f"unknown state kind {doc['kind']!r}")
