"""Input-state constructors and optical-element unitaries.

Sign conventions (pinned by tests, observable in interference):

* Beam splitter on the ordered pair ``(m1, m2)`` with amplitude transmittivity
  ``t = sqrt(T)``, reflectivity ``r = sqrt(1-T)``::

      U m1 U† = t·m1 + r·m2        U m2 U† = t·m2 − r·m1

  so a tap from ``m1`` into a vacuum ``m2`` picks up ``+r``; the minus sign
  lives on the second listed mode.  ``U|0,0⟩ = |0,0⟩``.

* Two-mode squeezer on ``(signal, idler)`` built from
  ``exp(−s·a†d† + s·d a)``:  ``S a S† = μ a + ν d†`` with ``μ = cosh s``,
  ``ν = sinh s``, and ``S|0,0⟩ = μ⁻¹ Σ (−λ)^k |k,k⟩`` with ``λ = ν/μ``.

Both are matrix exponentials of the exact bilinear generators on the
truncated space, hence exactly unitary there.  The beam-splitter generator
conserves ``n1 + n2`` and the squeezer generator ``n1 − n2``; truncating the
ladder operators only drops couplings that would leave the retained levels, so
each truncated generator is exactly block-diagonal in these sectors.  Each
sector is a tridiagonal chain of at most ``d`` states, and the unitary is
assembled from one small ``expm`` per chain (``2d−1`` of them) instead of one
``expm`` of the ``d²×d²`` generator.  The beam splitter is exact on every block
of fixed total photon number that fits under the cutoff, while the squeezer
(which changes total photon number) is accurate away from a band at the top.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .core import Cutoff, MixedState, OperatorMatrix, PureState, annihilation_matrix

__all__ = [
    "BeamSplitterParams",
    "SqueezerParams",
    "fock_state",
    "vacuum",
    "coherent_state",
    "thermal_state",
    "beam_splitter_unitary",
    "two_mode_squeezer_unitary",
]


@dataclass(frozen=True)
class BeamSplitterParams:
    """Intensity transmittivity T and the ordered (transmitted, reflected) pair."""

    transmittivity: float
    modes: tuple[str, str] = ("a", "b")

    def __post_init__(self) -> None:
        if not 0.0 < self.transmittivity <= 1.0:
            raise ValueError(f"transmittivity must be in (0, 1], got {self.transmittivity}")
        if self.modes[0] == self.modes[1]:
            raise ValueError("beam splitter modes must differ")

    @property
    def t(self) -> float:
        return float(np.sqrt(self.transmittivity))

    @property
    def r(self) -> float:
        return float(np.sqrt(1.0 - self.transmittivity))


@dataclass(frozen=True)
class SqueezerParams:
    """Two-mode squeezer coupling s on the ordered (signal, idler) pair."""

    coupling: float
    modes: tuple[str, str] = ("a", "d")

    def __post_init__(self) -> None:
        if self.coupling < 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.modes[0] == self.modes[1]:
            raise ValueError("squeezer modes must differ")

    @property
    def mu(self) -> float:
        return float(np.cosh(self.coupling))

    @property
    def nu(self) -> float:
        return float(np.sinh(self.coupling))

    @property
    def lam(self) -> float:
        return float(np.tanh(self.coupling))


def fock_state(n: int, cutoff: Cutoff, mode: str = "a") -> PureState:
    if not 0 <= n < cutoff.d:
        raise ValueError(f"fock level {n} outside retained levels 0..{cutoff.d - 1}")
    amps = np.zeros(cutoff.d, dtype=np.complex128)
    amps[n] = 1.0
    return PureState.create((mode,), cutoff, amps)


def vacuum(cutoff: Cutoff, mode: str = "a") -> PureState:
    return fock_state(0, cutoff, mode)


def coherent_state(alpha: complex, cutoff: Cutoff, mode: str = "a") -> PureState:
    """|α⟩ with C(n) = e^{−|α|²/2} αⁿ/√n!, renormalized over the truncation.

    Warns when |α|² > d/4 (the truncated basis is getting thin for this amplitude).
    """
    d = cutoff.d
    alpha = complex(alpha)
    if abs(alpha) ** 2 > d / 4.0:
        warnings.warn(
            f"coherent amplitude |alpha|^2 = {abs(alpha)**2:.3g} exceeds d/4 = {d / 4:.3g}; "
            "truncation may be inadequate",
            stacklevel=2,
        )
    n = np.arange(d)
    if alpha == 0:
        return vacuum(cutoff, mode)
    # log-domain magnitudes to stay finite for large n
    logmag = n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(logmag) * phase
    amps /= np.linalg.norm(amps)
    return PureState.create((mode,), cutoff, amps)


def thermal_state(nbar: float, cutoff: Cutoff, mode: str = "a") -> MixedState:
    """Thermal state with P(n) = n̄ⁿ/(n̄+1)^{n+1}, renormalized over the truncation."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    d = cutoff.d
    if nbar == 0:
        p = np.zeros(d)
        p[0] = 1.0
    else:
        p = np.exp(np.arange(d) * np.log(nbar / (nbar + 1.0))) / (nbar + 1.0)
        p /= p.sum()
    return MixedState.create((mode,), cutoff, np.diag(p).astype(np.complex128))


def _pair_ladders(cutoff: Cutoff) -> tuple[np.ndarray, np.ndarray]:
    """(a1, a2) on the two-mode space; pair index = n1 + d*n2 (mode 1 fastest)."""
    d = cutoff.d
    a = annihilation_matrix(cutoff).matrix
    eye = np.eye(d, dtype=np.complex128)
    a1 = np.kron(eye, a)  # fast digit = first listed mode
    a2 = np.kron(a, eye)
    return a1, a2


def _chain_unitary(chains, modes: tuple[str, str], cutoff: Cutoff) -> OperatorMatrix:
    """exp(G) on the two-mode space for G a direct sum of real tridiagonal chains.

    Each chain is ``(idx, c)``: the pair indices of its states in chain order
    and the couplings ``G[idx[j], idx[j+1]] = c[j] = −G[idx[j+1], idx[j]]``.
    Entries between different chains stay exactly zero.  The generators are
    passed to ``expm`` as complex matrices: on long chains scipy's real path
    (scipy 1.17) is off by up to 8e-14 from a 40-digit reference, the
    complex path by 1e-15.  The matrix is frozen in place rather than passed
    to ``OperatorMatrix.create``, whose defensive copy would double the peak
    memory of a build (d⁴ complex entries, 41 MB at d=40).
    """
    d = cutoff.d
    u = np.zeros((d * d, d * d), dtype=np.complex128)
    for idx, c in chains:
        u[np.ix_(idx, idx)] = expm((np.diag(c, 1) - np.diag(c, -1)).astype(np.complex128))
    u.setflags(write=False)
    return OperatorMatrix(u, tuple(modes), cutoff)


def beam_splitter_unitary(params: BeamSplitterParams, cutoff: Cutoff) -> OperatorMatrix:
    """Two-mode beam-splitter unitary realizing the conventions above."""
    d = cutoff.d
    theta = float(np.arccos(params.t))
    chains = []
    for total in range(2 * d - 1):  # sector n1 + n2 = total, in order of rising n1
        n1 = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        n2 = total - n1
        chains.append((n1 + d * n2, theta * np.sqrt(n1[1:] * (n2[1:] + 1.0))))
    return _chain_unitary(chains, params.modes, cutoff)


def two_mode_squeezer_unitary(params: SqueezerParams, cutoff: Cutoff) -> OperatorMatrix:
    """Two-mode squeezer exp(−s·a†d† + s·d a) on (signal, idler)."""
    d = cutoff.d
    s = params.coupling
    chains = []
    for diff in range(1 - d, d):  # sector n1 − n2 = diff, in order of rising n2
        n2 = np.arange(max(0, -diff), min(d, d - diff))
        n1 = n2 + diff
        chains.append((n1 + d * n2, s * np.sqrt((n1[:-1] + 1.0) * (n2[:-1] + 1.0))))
    return _chain_unitary(chains, params.modes, cutoff)
