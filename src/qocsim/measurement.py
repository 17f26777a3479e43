"""Detector POVMs, heralded conditioning, and pattern probabilities.

Every detector outcome is diagonal in the Fock basis, and
:func:`povm_diagonal` is its one definition: the diagonal of the POVM element
on d levels.  Heralds, click statistics and pattern probabilities read it
directly; :func:`povm_element` wraps it as a matrix for the state-level API.
Detector inefficiency is modeled as binomial thinning inside the POVM, which
is equivalent to a beam-splitter dilation for photon-counting statistics; the
tests exercise that equivalence explicitly.  Measured modes are always traced
out after conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Cutoff, MixedState, OperatorMatrix, PureState, State

__all__ = [
    "DetectorModel",
    "Requirement",
    "click",
    "noclick",
    "exactly",
    "unmeasured",
    "HeraldPattern",
    "ZeroProbabilityError",
    "povm_diagonal",
    "povm_elements",
    "povm_element",
    "condition",
    "joint_diagonal",
    "pattern_probability",
    "conditional_pattern_probability",
]

ZERO_PROBABILITY_FLOOR = 1e-300


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True)
class DetectorModel:
    """Photodetector: 'number-resolving' or 'on-off', with quantum efficiency."""

    kind: str = "number-resolving"
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("number-resolving", "on-off"):
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")


IDEAL_NR = DetectorModel("number-resolving", 1.0)


@dataclass(frozen=True)
class Requirement:
    """Per-mode herald requirement: click | noclick | exactly(n) | unmeasured."""

    kind: str
    count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("click", "noclick", "exactly", "unmeasured"):
            raise ValueError(f"unknown requirement {self.kind!r}")
        if self.kind == "exactly":
            if self.count is None or self.count < 0:
                raise ValueError("exactly requires a count >= 0")
        elif self.count is not None:
            raise ValueError(f"{self.kind} takes no count")


click = Requirement("click")
noclick = Requirement("noclick")
unmeasured = Requirement("unmeasured")


def exactly(n: int) -> Requirement:
    return Requirement("exactly", n)


@dataclass(frozen=True)
class HeraldPattern:
    """Required outcome per measured mode; unmeasured modes may be omitted."""

    requirements: Mapping[str, Requirement]

    def __post_init__(self) -> None:
        measured = [m for m, r in self.requirements.items() if r.kind != "unmeasured"]
        if not measured:
            raise ValueError("herald pattern must measure at least one mode")


def povm_diagonal(requirement: Requirement, detector: DetectorModel, d: int) -> np.ndarray:
    """Diagonal of the POVM element realizing a herald requirement on d levels.

    noclick: (1−η)ⁿ; click: 1 − (1−η)ⁿ; exactly(k): C(n,k) ηᵏ (1−η)^{n−k};
    unmeasured: 1.
    """
    if requirement.kind == "unmeasured":
        return np.ones(d)
    if requirement.kind != "exactly":
        off = (1.0 - detector.efficiency) ** np.arange(d)  # P(no click | n photons)
        return off if requirement.kind == "noclick" else 1.0 - off
    if detector.kind != "number-resolving":
        raise ValueError("exactly(n) requires a number-resolving detector")
    k = requirement.count
    if k >= d:
        raise ValueError(f"exactly({k}) outside retained levels 0..{d - 1}")
    eta = detector.efficiency
    binom = np.array([math.comb(m, k) for m in range(d)], dtype=float)
    return binom * eta**k * (1.0 - eta) ** np.maximum(np.arange(d) - k, 0)


def povm_elements(detector: DetectorModel, cutoff: Cutoff) -> list[OperatorMatrix]:
    """Complete POVM of the detector (diagonal elements summing to identity).

    on-off: [E_off, E_on] with E_off = Σ (1−η)ⁿ |n⟩⟨n|, E_on = 1 − E_off.
    number-resolving: E_k = Σ_{n≥k} C(n,k) ηᵏ (1−η)^{n−k} |n⟩⟨n| for k = 0..d−1.
    """
    if detector.kind == "on-off":
        requirements = [noclick, click]
    else:
        requirements = [exactly(k) for k in range(cutoff.d)]
    return [povm_element(r, detector, cutoff) for r in requirements]


def povm_element(requirement: Requirement, detector: DetectorModel, cutoff: Cutoff) -> OperatorMatrix:
    """Single POVM element realizing a herald requirement on one mode."""
    diag = povm_diagonal(requirement, detector, cutoff.d)
    return OperatorMatrix.create(np.diag(diag).astype(np.complex128), cutoff=cutoff)


def condition(state: State, mode: str, element: OperatorMatrix) -> tuple[State, float]:
    """Condition on a diagonal POVM element at ``mode`` and trace that mode out.

    Returns the unnormalized conditional state (its carried weight equals the
    outcome probability relative to the input weight) and that probability.
    For a rank-one outcome on a pure state the conditional branch stays pure.
    Raises :class:`ZeroProbabilityError` on vanishing outcomes and
    ``ValueError`` for an element that is not diagonal in the Fock basis (every
    detector POVM built here is).
    """
    if not np.allclose(element.matrix, np.diag(np.diag(element.matrix)), atol=1e-14):
        raise ValueError("condition needs a POVM element diagonal in the Fock basis")
    d = state.cutoff.d
    diag = np.real(np.diag(element.matrix))
    # moving `mode` to the front keeps the relative digit order of the other
    # modes, so the slices below are already laid out for `remaining`
    remaining = tuple(m for m in state.modes if m != mode)

    if isinstance(state, PureState):
        t = np.moveaxis(state.tensor_view(), state.axis_of(mode), 0).reshape(d, -1)
        prob = float(np.sum(diag * np.sum(np.abs(t) ** 2, axis=1)))
        _check_prob(prob, state)
        support = np.nonzero(diag > 0)[0]
        if support.size == 1:
            n = int(support[0])
            return PureState.create(remaining, state.cutoff, np.sqrt(diag[n]) * t[n]), prob
        rho = np.einsum("n,ni,nj->ij", diag, t, t.conj())
        return MixedState.create(remaining, state.cutoff, rho), prob

    # Tr_mode[E ρ] with diagonal E: weight each (n, n) block
    M = len(state.modes)
    idx = state.mode_index(mode)
    t = np.moveaxis(state.matrix.reshape((d,) * (2 * M)), (M - 1 - idx, 2 * M - 1 - idx), (0, 1))
    rest = d ** (M - 1)
    rho = np.einsum("n,nnij->ij", diag, t.reshape(d, d, rest, rest))
    prob = float(np.real(np.trace(rho)))
    _check_prob(prob, state)
    return MixedState.create(remaining, state.cutoff, rho), prob


def _check_prob(prob: float, state: State) -> None:
    weight = state.norm_tag if isinstance(state, PureState) else state.trace_tag
    if prob <= ZERO_PROBABILITY_FLOOR * max(weight, 1.0):
        raise ZeroProbabilityError(
            f"conditioning outcome has vanishing probability ({prob:.3e})"
        )


def joint_diagonal(
    modes: tuple[str, ...],
    dims: tuple[int, ...],
    requirements: Mapping[str, Requirement],
    detectors: Mapping[str, DetectorModel],
) -> np.ndarray:
    """Diagonal of ⊗ᵢ Eᵢ over ``modes`` (little-endian) at ``dims`` levels, 1 on unmeasured modes."""
    joint = np.ones(1)
    for m, d in zip(modes, dims):  # later modes are slower digits
        req = requirements.get(m, unmeasured)
        joint = np.kron(povm_diagonal(req, detectors.get(m, IDEAL_NR), d), joint)
    return joint


def pattern_probability(
    state: State,
    pattern: "HeraldPattern | Mapping[str, Requirement]",
    detectors: Mapping[str, DetectorModel],
) -> float:
    """Tr[ρ ⊗ᵢ Eᵢ] for the per-mode requirements (identity on unmeasured modes).

    Accepts a raw mode→requirement mapping as well, which may leave every mode
    unmeasured (the probability is then the state's carried weight).
    """
    reqs = pattern.requirements if isinstance(pattern, HeraldPattern) else pattern
    joint = joint_diagonal(state.modes, (state.cutoff.d,) * len(state.modes), reqs, detectors)
    if isinstance(state, PureState):
        return float(np.sum(joint * np.abs(state.amps) ** 2))
    return float(np.real(np.sum(joint * np.diag(state.matrix))))


def conditional_pattern_probability(
    state: State,
    joint_pattern: HeraldPattern,
    given_pattern: HeraldPattern,
    detectors: Mapping[str, DetectorModel],
) -> float:
    """P(joint)/P(given); raises ZeroProbabilityError if the condition never occurs."""
    denom = pattern_probability(state, given_pattern, detectors)
    if denom <= 0.0:
        raise ZeroProbabilityError("conditioning pattern has zero probability")
    return pattern_probability(state, joint_pattern, detectors) / denom
