"""Detector models and the POVM element of each herald outcome.

Every detector outcome is diagonal in the Fock basis, and
:func:`povm_diagonal` is its one definition: the diagonal of the POVM element
on d levels.  The staged herald, the brute-force oracle's √E and the click
statistics read it directly; :func:`povm_element` wraps it as a matrix.
Detector inefficiency is modeled as binomial thinning inside the POVM, which
is equivalent to a beam-splitter dilation for photon-counting statistics; the
tests exercise that equivalence explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Cutoff, OperatorMatrix

__all__ = [
    "DetectorModel",
    "Requirement",
    "click",
    "noclick",
    "exactly",
    "ZeroProbabilityError",
    "povm_diagonal",
    "povm_element",
]


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


@dataclass(frozen=True)
class Requirement:
    """Per-mode herald requirement: click | noclick | exactly(n)."""

    kind: str
    count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("click", "noclick", "exactly"):
            raise ValueError(f"unknown requirement {self.kind!r}")
        if self.kind == "exactly":
            if self.count is None or self.count < 0:
                raise ValueError("exactly requires a count >= 0")
        elif self.count is not None:
            raise ValueError(f"{self.kind} takes no count")


click = Requirement("click")
noclick = Requirement("noclick")


def exactly(n: int) -> Requirement:
    return Requirement("exactly", n)


def povm_diagonal(requirement: Requirement, detector: DetectorModel, d: int) -> np.ndarray:
    """Diagonal of the POVM element realizing a herald requirement on d levels.

    noclick: (1−η)ⁿ; click: 1 − (1−η)ⁿ; exactly(k): C(n,k) ηᵏ (1−η)^{n−k}.
    """
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


def povm_element(requirement: Requirement, detector: DetectorModel, cutoff: Cutoff) -> OperatorMatrix:
    """Single POVM element realizing a herald requirement on one mode."""
    diag = povm_diagonal(requirement, detector, cutoff.d)
    return OperatorMatrix.create(np.diag(diag).astype(np.complex128), cutoff=cutoff)

