"""The POVM element of each herald outcome, from the herald's own fields.

A herald is a requirement (``click``, ``noclick`` or ``exactly`` a count)
read by a detector of efficiency η, on-off or number-resolving.  Every such
outcome is diagonal in the Fock basis, and :func:`povm_diagonal` is its one
definition: the diagonal of the POVM element on d levels.  The staged herald,
the brute-force oracle's √E and the click statistics read it directly;
:func:`povm_element` wraps it as a matrix.  Detector inefficiency is modeled
as binomial thinning inside the POVM, which is equivalent to a beam-splitter
dilation for photon-counting statistics; the tests exercise that equivalence
explicitly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ZeroProbabilityError",
    "povm_diagonal",
    "povm_element",
]


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


def povm_diagonal(requirement: str, count: int | None, eta: float, onoff: bool,
                  d: int) -> np.ndarray:
    """Diagonal of the POVM element realizing a herald requirement on d levels.

    noclick: (1−η)ⁿ; click: 1 − (1−η)ⁿ; exactly(k): C(n,k) ηᵏ (1−η)^{n−k}.
    ``count`` is k for ``exactly`` and ``None`` otherwise.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {eta}")
    if requirement in ("click", "noclick") and count is None:
        off = (1.0 - eta) ** np.arange(d)  # P(no click | n photons)
        return off if requirement == "noclick" else 1.0 - off
    if requirement != "exactly" or count is None or count < 0:
        raise ValueError(f"unknown requirement {requirement!r} with count {count!r}")
    if onoff:
        raise ValueError("exactly(n) requires a number-resolving detector")
    if count >= d:
        raise ValueError(f"exactly({count}) outside retained levels 0..{d - 1}")
    binom = np.array([math.comb(m, count) for m in range(d)], dtype=float)
    return binom * eta**count * (1.0 - eta) ** np.maximum(np.arange(d) - count, 0)


def povm_element(requirement: str, count: int | None, eta: float, onoff: bool,
                 d: int) -> np.ndarray:
    """The POVM element of a herald requirement on one mode, as a d×d matrix."""
    return np.diag(povm_diagonal(requirement, count, eta, onoff, d)).astype(np.complex128)
