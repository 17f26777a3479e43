"""Truncated Fock-space linear algebra: operators, their application and reduction.

A state is a plain complex ndarray: a ket of shape ``(d**M,)`` or a density
matrix of shape ``(d**M, d**M)`` over M modes, every mode truncated to the
same dimension ``d`` (levels 0..d-1).  Its mode labels are held beside it, by
whoever holds the array, and passed in where they matter.  Multimode indices
are little-endian: for a state over ``modes = (m0, m1, ..., m_{M-1})`` the
basis index of the occupation ``(n0, n1, ..., n_{M-1})`` is
``n0 + n1*d + n2*d**2 + ...``, i.e. the first listed mode is the
fastest-varying digit.  Unnormalized arrays are first class: their norm or
trace is the carried weight, which downstream conditioning probabilities
are ratios of.

An operator is a plain complex ndarray too: :func:`apply` takes the matrix
together with the modes it acts on, and the elementary matrices come back as
arrays.  :func:`apply` and :func:`partial_trace` are plain numpy contractions
(the brute-force oracle's algebra); :func:`apply_matrix` is the staged
engine's kernel only, which takes a real block-diagonal operator as one
``(idx, blocks)`` stack and one dimension per mode, for its per-mode cutoffs,
and reaches the operator's digits through transposed views.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "UnknownModeError",
    "annihilation_matrix",
    "truncated_commutator",
    "apply",
    "partial_trace",
]


class DimensionMismatchError(ValueError):
    """Operator and state dimensions (or cutoffs/modes) do not match."""


class UnknownModeError(KeyError):
    """A referenced mode label is not part of the state/operator."""


# ---------------------------------------------------------------------------
# elementary single-mode operators


def annihilation_matrix(d: int) -> np.ndarray:
    """Matrix of a on d levels, with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, d, dtype=np.float64)), k=1).astype(np.complex128)


def truncated_commutator(d: int) -> np.ndarray:
    """a·a† − a†·a on d levels: diag(1, ..., 1, -(d-1))."""
    a = annihilation_matrix(d)
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


def _levels(arr: np.ndarray, modes: Sequence[str]) -> int:
    """The levels d of each mode of a ket or density matrix over ``modes``."""
    d = round(arr.shape[0] ** (1 / len(modes)))
    if d ** len(modes) != arr.shape[0]:
        raise DimensionMismatchError(f"{arr.shape[0]} rows are not d**{len(modes)} for any d")
    return d


def _index(modes: Sequence[str], mode: str) -> int:
    try:
        return modes.index(mode)
    except ValueError:
        raise UnknownModeError(mode) from None


def apply(matrix: np.ndarray, op_modes: Sequence[str], modes: Sequence[str],
          arr: np.ndarray) -> np.ndarray:
    """O|ψ⟩ or O ρ O† of the matrix O acting on ``op_modes`` (little-endian), for a
    ket or density matrix ``arr`` over ``modes``."""
    M, k, d = len(modes), len(op_modes), _levels(arr, modes)
    # C order makes the first axis the slowest digit: mode i is axis M-1-i
    axes = [M - 1 - _index(modes, m) for m in reversed(op_modes)]
    if matrix.shape != (d**k, d**k):
        raise DimensionMismatchError(f"operator has shape {matrix.shape}, expected {(d**k, d**k)}")
    op = matrix.reshape((d,) * (2 * k))

    def on_ket(a: np.ndarray) -> np.ndarray:  # shaped (d**M,) or (d**M, X)
        out = np.tensordot(op, a.reshape((d,) * M + a.shape[1:]), axes=(range(k, 2 * k), axes))
        return np.moveaxis(out, range(k), axes).reshape(a.shape)

    if arr.ndim == 1:
        return on_ket(arr)
    return on_ket(on_ket(arr).conj().T).conj().T


def partial_trace(arr: np.ndarray, modes: Sequence[str], keep: Sequence[str]) -> np.ndarray:
    """Reduced density matrix over ``keep``, in that order, of a ket or density matrix
    over ``modes`` (trace preserved)."""
    if not keep:
        raise ValueError("keep must be nonempty")
    M, d = len(modes), _levels(arr, modes)
    kept = [_index(modes, m) for m in reversed(keep)]
    # mode i is ket axis M-1-i and bra axis 2M-1-i, labelled i and M+i; a
    # traced mode's bra reuses its ket label, so einsum sums that diagonal
    ket = list(range(M - 1, -1, -1))
    bra = [M + i if i in kept else i for i in ket]
    rho = np.outer(arr, arr.conj()) if arr.ndim == 1 else arr
    out = np.einsum(rho.reshape((d,) * (2 * M)), ket + bra, kept + [M + i for i in kept])
    return out.reshape(d ** len(keep), -1)
