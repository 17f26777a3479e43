"""Wigner grids and their diagnostics, and fidelity.

Convention: W(β) = (2/π)·Tr[ρ D(β) Π D(−β)] with Π the photon-number parity
and D the displacement operator, so W(0) = 2/π for vacuum and ∫W d²β = 1.

W is evaluated from the Laguerre expansion W = Σ ρ_mn W_mn(β) of Cahill &
Glauber, Phys. Rev. 177, 1882 (1969): each diagonal of ρ is summed against
normalized generalized Laguerre functions of 4|β|² by Clenshaw's recurrence,
run once per distinct radius |β| of the grid, and the diagonals are combined
by Horner's rule in 2β over every grid point, as in QuTiP (Johansson et al.,
Comput. Phys. Commun. 184, 1234 (2013)), from ρ's highest nonzero diagonal
down.  The result is exact for the truncated ρ: no larger Fock space and no
matrix exponential are involved.  A grid's geometry (its axes, the radii and
2β of its points) is computed once per :class:`GridSpec` and shared.

:func:`fidelity` of two Fock-diagonal states, the thermal case, reads
(Σₙ √(pₙqₙ))² off their populations; other mixed references take the
Uhlmann route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


from .core import DimensionMismatchError, MixedState, PureState, State, to_mixed

__all__ = [
    "GridSpec",
    "NonFiniteWignerError",
    "WignerGrid",
    "wigner",
    "fidelity",
    "uhlmann_fidelity",
    "min_wigner",
    "grid_integral",
]

DEFAULT_GRID: "GridSpec"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in the β plane: (min, max, count) per axis."""

    re_range: tuple[float, float, int]
    im_range: tuple[float, float, int]

    def __post_init__(self) -> None:
        for lo, hi, n in (self.re_range, self.im_range):
            if n < 2:
                raise ValueError("grid needs at least 2 points per axis")
            if not hi > lo:
                raise ValueError("grid range must be increasing")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("grid bounds must be finite")

    @classmethod
    def square(cls, lo: float, hi: float, count: int) -> "GridSpec":
        return cls((lo, hi, count), (lo, hi, count))


DEFAULT_GRID = GridSpec.square(-3.0, 3.0, 81)


class NonFiniteWignerError(ValueError):
    """A non-finite W on a grid, e.g. at a finite β too far out for the truncated series."""


@dataclass(frozen=True)
class WignerGrid:
    """Sampled W(β) on a rectangular grid; values[i, j] = W(re[j] + i·im[i])."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.im_axis.size, self.re_axis.size):
            raise DimensionMismatchError(
                f"values shape {self.values.shape} != (|im|, |re|) = "
                f"{(self.im_axis.size, self.re_axis.size)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteWignerError("Wigner values must be finite")


def _normalized_rho(state: State) -> np.ndarray:
    """The single-mode density matrix divided by its trace, as every W evaluator takes it."""
    if len(state.modes) != 1:
        raise DimensionMismatchError("Wigner evaluation requires a single-mode state")
    rho = to_mixed(state).matrix
    weight = float(np.real(np.trace(rho)))
    if weight <= 0:
        raise ValueError("cannot evaluate the Wigner function of a zero-weight state")
    return rho / weight


def _geometry(betas: np.ndarray) -> tuple[np.ndarray, ...]:
    """What :func:`_wigner_values` needs of the points β.

    The distinct radii x = 4|β|², each point's index into them, 2β and the
    prefactor (2/π)·e^{−x/2}.
    """
    x = 4.0 * np.abs(betas) ** 2
    radii, where = np.unique(x, return_inverse=True)
    return radii, where.reshape(x.shape), 2.0 * betas, (2.0 / np.pi) * np.exp(-0.5 * x)


@lru_cache(maxsize=4)
def _grid_geometry(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The grid's two axes and its :func:`_geometry`, computed once per spec and read-only."""
    re, im = (np.linspace(*axis) for axis in (grid.re_range, grid.im_range))
    out = (re, im) + _geometry(re[None, :] + 1j * im[:, None])
    for a in out:
        a.setflags(write=False)
    return out


def _highest_diagonal(rho: np.ndarray) -> int:
    """The largest L whose L-th upper diagonal of ρ holds a nonzero entry."""
    rows, cols = np.nonzero(rho)
    return int(np.max(cols - rows, initial=0))


def _wigner_values(rho: np.ndarray, geometry: tuple[np.ndarray, ...]) -> np.ndarray:
    """W(β) at the points of ``geometry`` (see :func:`_geometry`); rho is used as given.

    W = (2/π)·e^{−2|β|²}·Re Σ_L (2β)^L/√(L!)·c_L(4|β|²), with
    c_L(x) = Σ_m ρ'_{m,m+L}·f_m(x) over the L-th upper diagonal of ρ' (ρ with
    its off-diagonals doubled) and f_m = (−1)ᵐ·√(m!·L!/(m+L)!)·L_m^(L) the
    normalized generalized Laguerre functions, which obey
    f_{m+1} = −(2m+L+1−x)/√((m+1)(m+L+1))·f_m − √(m(m+L)/((m+1)(m+L+1)))·f_{m−1},
    f_0 = 1, f_1 = −(L+1−x)/√(L+1).  Each c_L is summed by Clenshaw's
    recurrence from the top of its diagonal, the sum over L by Horner's rule,
    which starts at ρ's highest nonzero diagonal: the diagonals above it add
    exact zeros, so skipping them changes no bit.

    c_L depends on β only through x, so each Clenshaw recurrence runs once per
    distinct radius (the 6,561 points of the default grid share 1,313 values
    of x), and the Horner pass over the full grid gathers c_L back onto every
    β.  Every point still sees the same float operations in the same order:
    numpy divides a complex number by a real one as a product with the
    reciprocal, so the cheaper ``* (1.0 / √n)`` gives the same bits as ``/ √n``.
    """
    radii, where, two_beta, prefactor = geometry
    rho2 = 2.0 * rho - np.diag(np.diag(rho))
    total = np.zeros(two_beta.shape, dtype=np.complex128)
    for L in range(_highest_diagonal(rho), -1, -1):
        c = np.diag(rho2, L)
        y0, y1 = c[-1], 0.0
        for k in range(c.size - 1, 0, -1):
            y0, y1 = (
                c[k - 1] - y1 * math.sqrt(k * (k + L) / ((k + 1) * (k + L + 1))),
                y0 - y1 * (2 * k + L + 1 - radii) * (1.0 / math.sqrt((k + 1) * (k + L + 1))),
            )
        c_L = y0 - y1 * (L + 1 - radii) * (1.0 / math.sqrt(L + 1))
        # not in place: numpy's in-place product of one-element arrays (a
        # single-point evaluation) rounds differently from this one
        total = c_L[where] + total * (two_beta * (1.0 / math.sqrt(L + 1)))
    return prefactor * total.real


def wigner(state: State, grid: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """Sample W(β) of the state normalized to unit trace on a rectangular grid (row-major)."""
    rho = _normalized_rho(state)
    re, im, *geometry = _grid_geometry(grid)
    # a grid too far out overflows; WignerGrid rejects the non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        values = _wigner_values(rho, geometry)
    return WignerGrid(re.copy(), im.copy(), values)


def _fock_populations(state: State) -> np.ndarray | None:
    """The normalized photon-number distribution of a Fock-diagonal state, else ``None``."""
    rho = to_mixed(state)
    p = np.diagonal(rho.matrix)
    if np.count_nonzero(rho.matrix) > np.count_nonzero(p):
        return None
    return p.real / rho.trace_tag


def fidelity(reference: State, state: State) -> float:
    """Jozsa's fidelity of ``state`` with ``reference``, both normalized first.

    For a pure reference |φ⟩ it reduces to F = ⟨φ|ρ|φ⟩.  A mixed reference
    and a state that are both diagonal in the Fock basis (a thermal input
    against a charge-dephased branch) give F = (Σₙ √(pₙqₙ))² from their
    populations; any other mixed reference goes to :func:`uhlmann_fidelity`,
    whose eigenvalue floor would drop the small but real pₙqₙ of a thermal
    tail.
    """
    if reference.modes != state.modes or reference.cutoff != state.cutoff:
        raise DimensionMismatchError("fidelity requires identical modes and cutoff")
    if not isinstance(reference, PureState):
        p, q = _fock_populations(reference), _fock_populations(state)
        if p is None or q is None:
            return uhlmann_fidelity(reference, to_mixed(state))
        val = float(np.sum(np.sqrt(p * q)) ** 2)
        return min(val, 1.0) if val <= 1.0 + 1e-9 else val
    ref = reference.amps / np.sqrt(reference.norm_tag)
    if isinstance(state, PureState):
        val = abs(np.vdot(ref, state.amps)) ** 2 / state.norm_tag
    else:
        val = float(np.real(ref.conj() @ state.matrix @ ref)) / state.trace_tag
    # clamp only boundary-grazing numerical noise
    if -1e-9 <= val < 0.0:
        return 0.0
    if 1.0 < val <= 1.0 + 1e-9:
        return 1.0
    return float(val)


def uhlmann_fidelity(rho: MixedState, sigma: MixedState) -> float:
    """F(ρ,σ) = (Tr√(√ρ σ √ρ))² for two (possibly mixed) normalized states."""
    if rho.modes != sigma.modes or rho.cutoff != sigma.cutoff:
        raise DimensionMismatchError("fidelity requires identical modes and cutoff")
    r = rho.matrix / rho.trace_tag
    s = sigma.matrix / sigma.trace_tag
    evals, evecs = np.linalg.eigh(r)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner_evals = np.linalg.eigvalsh(root @ s @ root)
    # sqrt amplifies eigenvalue noise near zero; drop values at the noise floor
    floor = max(float(inner_evals[-1]), 0.0) * 1e-14
    inner_evals = np.where(inner_evals > floor, inner_evals, 0.0)
    val = float(np.sum(np.sqrt(inner_evals)) ** 2)
    return min(val, 1.0) if val <= 1.0 + 1e-9 else val


def min_wigner(grid: WignerGrid) -> tuple[complex, float]:
    """Grid minimum and its location."""
    idx = int(np.argmin(grid.values))
    i, j = np.unravel_index(idx, grid.values.shape)
    beta = complex(grid.re_axis[j], grid.im_axis[i])
    return beta, float(grid.values[i, j])


def grid_integral(grid: WignerGrid) -> float:
    """Riemann sum of W over the grid."""
    cell = (grid.re_axis[1] - grid.re_axis[0]) * (grid.im_axis[1] - grid.im_axis[0])
    return float(np.sum(grid.values) * cell)
