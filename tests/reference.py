"""Reference implementations the tests compare qocsim against.

None of these is on a product path, so they live with the tests: dense
operator algebra on a uniform cutoff, a coherent state that warns at a fixed
truncation, heralded conditioning of a state, the pattern probabilities and
density matrix of an ensemble, closed-form Wigner values of Gaussian states,
pointwise Wigner evaluation by the Laguerre series and the canonical `.qoc`
printer.  Each is written directly from its definition and serves as an
oracle; ``output_value`` and ``normalized_branch`` are lookup helpers, and
``fock_state``, ``vacuum``, ``thermal_state``, ``tensor`` and ``to_mixed``
build states through :func:`qocsim.engine.input_state` and ``np.kron``.

As in :mod:`qocsim.core`, a state is a plain complex array, a ket ``(d**M,)``
or a density matrix ``(d**M, d**M)``, and a function that needs its mode
labels takes them beside it.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from qocsim.core import DimensionMismatchError, UnknownModeError, annihilation_matrix, apply
from qocsim.dsl import CircuitSpec, ElementStmt, InputStmt
from qocsim.elements import _coherent_amplitudes
from qocsim.engine import input_state
from qocsim.measurement import ZeroProbabilityError, povm_diagonal

ZERO_PROBABILITY_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# dense operator algebra


def creation_matrix(d: int) -> np.ndarray:
    """Matrix of a† (transpose of a); the top level annihilates (truncation leak)."""
    return annihilation_matrix(d).T


def number_matrix(d: int) -> np.ndarray:
    return np.diag(np.arange(d, dtype=np.float64)).astype(np.complex128)


def embed(
    op: np.ndarray,
    target_modes: Iterable[str],
    full_modes: Iterable[str],
    d: int,
) -> np.ndarray:
    """Tensor the matrix ``op`` (acting on ``target_modes``) with identity on the rest.

    The result's index ordering follows ``full_modes`` little-endian.
    """
    target = tuple(target_modes)
    full = tuple(full_modes)
    for m in target:
        if m not in full:
            raise UnknownModeError(m)
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


def expectation(op: np.ndarray, op_modes: Sequence[str], modes: Sequence[str],
                state: np.ndarray) -> complex:
    """⟨ψ|O|ψ⟩ or Tr[ρ O] of ``op`` on ``op_modes`` for a state over ``modes``, with the
    state's carried (unnormalized) weight."""
    if state.ndim == 1:
        return complex(np.vdot(state, apply(op, op_modes, modes, state)))
    d = round(len(state) ** (1 / len(modes)))
    return complex(np.trace(state @ embed(op, op_modes, modes, d)))


# ---------------------------------------------------------------------------
# input states


def fock_state(n: int, d: int) -> np.ndarray:
    return input_state(InputStmt("a", "fock", (float(n),)), d)


def vacuum(d: int) -> np.ndarray:
    return input_state(InputStmt("a", "vacuum"), d)


def thermal_state(nbar: float, d: int) -> np.ndarray:
    """The density matrix diag(P(n)), P(n) = n̄ⁿ/(n̄+1)^{n+1} renormalized over d levels."""
    return input_state(InputStmt("a", "thermal", (nbar,)), d)


def to_mixed(state: np.ndarray) -> np.ndarray:
    """A density matrix as it is; a ket |ψ⟩ as |ψ⟩⟨ψ|."""
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def tensor(*states: np.ndarray) -> np.ndarray:
    """The joint state, the first state's digits fastest; a density matrix if any factor is."""
    if any(s.ndim == 2 for s in states):
        states = tuple(to_mixed(s) for s in states)
    return reduce(lambda joint, s: np.kron(s, joint), states)

# Poisson weight a coherent state may lose to the cutoff without a warning.
_DISCARDED_WARN = 1e-6


def coherent_state(alpha: complex, d: int) -> np.ndarray:
    """|α⟩ with C(n) = e^{−|α|²/2} αⁿ/√n!, renormalized over d levels.

    Warns when the truncation discards more than 1e-6 of the Poisson weight,
    1 − Σ_{n<d} e^{−|α|²}|α|²ⁿ/n!, summed in the log domain.  If every kept
    amplitude underflows (|α|² ≫ d), they are taken relative to the largest,
    so the state stays finite, its weight near the top level.
    """
    alpha = complex(alpha)
    norm2 = abs(alpha) ** 2 if abs(alpha) < 1e154 else math.inf  # past the float range
    lost = 0.0
    if alpha != 0:
        n = np.arange(d)
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(d)])
        lost = 1.0 - float(np.exp(2.0 * n * math.log(abs(alpha)) - log_fact - norm2).sum())
    if lost > _DISCARDED_WARN:
        warnings.warn(
            f"cutoff d={d} discards {lost:.3g} of the coherent state's weight "
            f"(|alpha|^2 = {norm2:.3g}); truncation may be inadequate",
            stacklevel=2,
        )
    return _coherent_amplitudes(alpha, d)


# ---------------------------------------------------------------------------
# heralded conditioning and pattern probabilities


def condition(state: np.ndarray, modes: Sequence[str], mode: str,
              element: np.ndarray) -> tuple[np.ndarray, float]:
    """Condition a state over ``modes`` on a diagonal POVM element at ``mode`` and trace
    that mode out.

    Returns the unnormalized conditional state over the other modes, in order
    (its carried weight equals the outcome probability relative to the input
    weight), and that probability.  For a rank-one outcome on a ket the
    conditional branch stays a ket.  Raises :class:`ZeroProbabilityError` on
    vanishing outcomes and ``ValueError`` for an element that is not diagonal
    in the Fock basis.
    """
    if not np.allclose(element, np.diag(np.diag(element)), atol=1e-14):
        raise ValueError("condition needs a POVM element diagonal in the Fock basis")
    d = len(element)
    diag = np.real(np.diag(element))
    # moving `mode` to the front keeps the relative digit order of the other
    # modes, so the slices below are already laid out for the remaining ones
    M = len(modes)
    if mode not in modes:
        raise UnknownModeError(mode)
    axis = M - 1 - list(modes).index(mode)  # C order reverses the digits

    if state.ndim == 1:
        t = np.moveaxis(state.reshape((d,) * M), axis, 0).reshape(d, -1)
        prob = float(np.sum(diag * np.sum(np.abs(t) ** 2, axis=1)))
        _check_prob(prob, float((np.abs(state) ** 2).sum()))
        support = np.nonzero(diag > 0)[0]
        if support.size == 1:
            n = int(support[0])
            return np.sqrt(diag[n]) * t[n], prob
        rho = np.einsum("n,ni,nj->ij", diag, t, t.conj())
        return rho, prob

    # Tr_mode[E ρ] with diagonal E: weight each (n, n) block
    t = np.moveaxis(state.reshape((d,) * (2 * M)), (axis, M + axis), (0, 1))
    rest = d ** (M - 1)
    rho = np.einsum("n,nnij->ij", diag, t.reshape(d, d, rest, rest))
    prob = float(np.real(np.trace(rho)))
    _check_prob(prob, float(np.trace(state).real))
    return rho, prob


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


def ensemble_to_mixed(ensemble) -> np.ndarray:
    """The density matrix Σₖ |vₖ⟩⟨vₖ| of an engine ``Ensemble`` at one cutoff on every mode.

    With charge signs every element between distinct charges is dropped, as
    the ensemble's own ``reduced`` does.
    """
    m = ensemble.members
    rho = m @ m.conj().T
    if ensemble.signs is not None:
        q = ensemble._charges()
        rho[q[:, None] != q] = 0.0
    return rho


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


def _unit_trace_rho(state: np.ndarray) -> np.ndarray:
    """The single-mode density matrix divided by its trace."""
    rho = to_mixed(state)
    weight = float(np.real(np.trace(rho)))
    if weight <= 0:
        raise ValueError("cannot evaluate the Wigner function of a zero-weight state")
    return rho / weight


def parity_expectation(state: np.ndarray) -> float:
    """⟨Π⟩ from photon-number populations of the state normalized to unit trace."""
    pops = np.real(np.diag(_unit_trace_rho(state)))
    return float(np.sum((-1.0) ** np.arange(pops.size) * pops))


def wigner_point(state: np.ndarray, beta):
    """W at the phase-space point(s) β of the state normalized to unit trace.

    The Laguerre expansion of Cahill & Glauber, Phys. Rev. 177, 1882 (1969),
    summed at every β on its own: W = (2/π)·e^{−2|β|²}·Re Σ_L (2β)^L/√(L!)·c_L(4|β|²),
    with c_L(x) = Σ_m ρ'_{m,m+L}·f_m(x) over the L-th upper diagonal of ρ'
    (ρ with its off-diagonals doubled) and f_m = (−1)ᵐ·√(m!·L!/(m+L)!)·L_m^(L)
    the normalized generalized Laguerre functions, each c_L by Clenshaw's
    recurrence and the sum over L by Horner's rule.  A scalar β gives a float,
    an array of them an array of W.
    """
    rho = _unit_trace_rho(state)
    betas = np.asarray(beta, dtype=np.complex128)
    x = 4.0 * np.abs(betas) ** 2
    rho2 = 2.0 * rho - np.diag(np.diag(rho))
    total = np.zeros(betas.shape, dtype=np.complex128)
    for L in range(rho.shape[0] - 1, -1, -1):
        c = np.diag(rho2, L)
        y0, y1 = c[-1], 0.0
        for k in range(c.size - 1, 0, -1):
            y0, y1 = (
                c[k - 1] - y1 * np.sqrt(k * (k + L) / ((k + 1) * (k + L + 1))),
                y0 - y1 * (2 * k + L + 1 - x) / np.sqrt((k + 1) * (k + L + 1)),
            )
        c_L = y0 - y1 * (L + 1 - x) / np.sqrt(L + 1)
        total = c_L + total * (2.0 * betas / np.sqrt(L + 1))
    values = (2.0 / np.pi) * np.exp(-0.5 * x) * total.real
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# circuit text


def _fmt(x: float) -> str:
    return repr(float(x))


def print_circuit(spec: CircuitSpec) -> str:
    """Canonical text form; comments are not preserved.

    The statements are ordered as modes / inputs / operations / outputs, and
    ``parse(print_circuit(spec)) == spec``.
    """
    lines = ["modes " + " ".join(spec.modes)]
    for inp in spec.inputs:
        params = (str(int(p)) if inp.kind == "fock" else _fmt(p) for p in inp.params)
        lines.append(" ".join(["input", inp.mode, inp.kind, *params]))
    for op in spec.operations:
        if isinstance(op, ElementStmt):
            pname = "T" if op.kind == "bs" else "s"
            lines.append(f"{op.kind} {op.modes[0]} {op.modes[1]} {pname}={_fmt(op.value)}")
        else:
            parts = [f"herald {op.mode} {op.requirement}"]
            if op.requirement == "exactly":
                parts.append(str(op.count))
            if op.eta != 1.0:
                parts.append(f"eta={_fmt(op.eta)}")
            if op.onoff:
                parts.append("onoff")
            lines.append(" ".join(parts))
    for out in spec.outputs:
        grid = out.grid and f"{_fmt(out.grid[0])}:{_fmt(out.grid[1])}:{out.grid[2]}"
        tail = grid or ("input" if out.kind == "fidelity" else None)
        lines.append(" ".join(w for w in ("out", out.kind, out.mode, tail) if w))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# helpers


def normalized_branch(result, which: str) -> np.ndarray:
    """A ``SchemeResult``'s ``'pd1'`` or ``'pd2'`` branch state, normalized to unit trace."""
    rho = getattr(result, f"{which}_branch")
    return rho / rho.trace().real


def output_value(result, kind: str, mode: str | None = None):
    """The value of an execution result's first output of ``kind`` (on ``mode``, if given)."""
    for out, value in zip(result.plan.spec.outputs, result.outputs):
        if out.kind == kind and (mode is None or out.mode == mode):
            return value
    raise KeyError(f"no {kind!r} output for mode {mode!r}")
