"""Wigner grids and their diagnostics, and fidelity.

A state is a plain complex array: a ket ``(d,)`` or a density matrix
``(d, d)``, possibly unnormalized.  :func:`wigner`, :func:`fidelity` and
:func:`uhlmann_fidelity` check their arguments once, in :func:`_check`.

Convention: W(β) = (2/π)·Tr[ρ D(β) Π D(−β)] with Π the photon-number parity
and D the displacement operator, so W(0) = 2/π for vacuum and ∫W d²β = 1.

W is two products of Hermite-function tables, exact for the truncated ρ.  In
the quadratures x = √2·Re β, y = √2·Im β, W = (2/π)∫ds ⟨x+s|ρ|x−s⟩e^{−2iys};
(x+s, x−s) is a 45° rotation of (√2x, √2s), which takes |m⟩|n⟩ to
Σ_k C⁽ᴺ⁾_{k,m}|k⟩|N−k⟩ (N = m + n, C⁽ᴺ⁾ a 50:50 beam splitter's N-photon
sector), and ∫φ_j(√2s)e^{−2iys}ds = √π(−i)ʲφ_j(√2y).  So W(β) =
(2/√π)·Σ_{k,j<2d−1} φ_k(2 Re β)·Re M_kj·φ_j(2 Im β) with M_kj =
(−i)ʲ·Σ_m C⁽ᵏ⁺ʲ⁾_{k,m}·ρ_{m,k+j−m}: the 50:50 beam splitter applied to ρ read as a
two-mode ket, one product of its sectors up to 2d − 1 = ``PRODUCT_MAX_SIZE`` and one
walk over them above (:func:`_sector_matrix`).  The cap, 23, covers d ≤ 12 (``wigner
--alpha 1``, the benchmark's grids), whose sectors a fresh process builds in ≈2 ms, six
grids' saving; at 31 the build stalled ≈0.18 s in 5 of 66 processes on 2 cores.  The
sectors, apart from the engine's elements, and the axes and two tables are cached
read-only per 2d − 1 (and grid): 2·(2d − 1)³ floats a key with the sectors' eigenbasis
(0.19 MB at the cap, 0.66 MB for all 11 keys; 230 MB at d = 122), and (2d − 1)·(n_re +
n_im) for the tables, four keys at most (30 KB at d = 12 on the default grid).

:func:`fidelity` checks its arguments once, then takes one unchecked kernel per route:
⟨φ|ρ|φ⟩ for a pure reference, (Σₙ √(pₙqₙ))² off the populations of two Fock-diagonal
states (the thermal case), and Uhlmann's otherwise.  ``scheme`` calls the first two directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DimensionMismatchError
from .elements import element_sectors

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
HERMITICITY_TOL = 1e-10
PRODUCT_MAX_SIZE = 23  # the largest 2d − 1 whose M is one product (see _sector_matrix)
_sectors = lru_cache(maxsize=PRODUCT_MAX_SIZE // 2)(element_sectors.__wrapped__)  # a key per d ≥ 2


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


def _check(*states: np.ndarray) -> None:
    """Raise unless each state is a ket (1-D) or a square density matrix, all on one
    number of levels (:class:`DimensionMismatchError`), and each density matrix is
    Hermitian within ``HERMITICITY_TOL``·max(1, |trace|) (``ValueError``)."""
    d = len(states[0])
    for x in states:
        if x.ndim not in (1, 2) or x.shape != (d,) * x.ndim:
            raise DimensionMismatchError(
                f"expected a ket or a square density matrix on {d} levels, got shape {x.shape}")
        if x.ndim == 2:
            herm = float(np.abs(x - x.conj().T).max())
            if herm > HERMITICITY_TOL * max(1.0, abs(float(x.trace().real))):
                raise ValueError(f"density matrix not Hermitian (deviation {herm})")


def _density(state: np.ndarray) -> np.ndarray:
    """A density matrix as it is; a ket |ψ⟩ as |ψ⟩⟨ψ|."""
    return np.outer(state, state.conj()) if state.ndim == 1 else state


@lru_cache(maxsize=4)
def _grid_tables(grid: GridSpec, size: int) -> tuple[np.ndarray, ...]:
    """The grid's axes, φ_k(2·re), and φ_k(2·im)·(2/√π)·(1, 1, −1, −1)[k mod 4] for k < ``size``."""
    re, im = (np.linspace(*axis) for axis in (grid.re_range, grid.im_range))
    # every φ_k vanishes long before 1e300; an inf would meet a zero φ_0 as nan
    phi = _hermite_functions(np.clip(2.0 * np.concatenate((re, im)), -1e300, 1e300), size)
    sign = np.where(np.arange(size) % 4 < 2, 2.0, -2.0) / math.sqrt(math.pi)
    out = (re, im, phi[:, : re.size], phi[:, re.size :] * sign[:, None])
    for a in out:
        a.setflags(write=False)
    return out


def _hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
    """φ_k(x) = (2ᵏk!√π)^{−1/2}·H_k(x)·e^{−x²/2} for k < ``count``, a (count, x.size) array.

    The normalized three-term recurrence runs on 2ᵉ·φ_k with a binary
    exponent e per point, renormalized every 32 steps: φ_0 underflows for
    |x| > 37.6 while the φ_k near k = x²/2 are O(0.1), and no |φ_k| exceeds 1.
    """
    half = 0.5 * x * x / math.log(2.0)  # x²/2 in bits
    shift = np.minimum(np.floor(half), 2.0**20)
    cur, prev, shift = np.pi**-0.25 * np.exp2(shift - half), np.zeros_like(x), shift.astype(np.int64)
    out = np.empty((count, x.size))
    for k in range(count):
        if k % 32 == 31:
            _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            cur, prev, shift = np.ldexp(cur, -e), np.ldexp(prev, -e), shift - e
        np.ldexp(cur, -shift, out=out[k])
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
    return out


def _bandwidth(rho: np.ndarray) -> int:
    """The largest L whose L-th upper diagonal of ρ holds a nonzero entry."""
    rows, cols = np.nonzero(rho)
    return int(np.max(cols - rows, initial=0))


def _sector_matrix(rho: np.ndarray) -> np.ndarray:
    """M as a real matrix: at (k, j), N = k + j, Σ_m C⁽ᴺ⁾_{k,m}·ρ_{m,N−m}'s real part
    for even j and imaginary part for odd j (the im table holds (−i)ʲ's signs).

    A Fock-diagonal ρ takes a closed form.  Up to the cap, ρᵀ fills the (2d − 1)² box as
    (re, im) pairs for one product of the sectors' real blocks.  Above it, column m of
    sector N (the image of |m⟩|N−m⟩) is (√m·a_u†·c_{m−1} + √(N−m)·a_v†·c_m)/N on columns
    m − 1, m of sector N − 1, a_u†, a_v† = (a_s† ± a_t†)/√2; either route alone grows the
    rounding exponentially.  Column N − m is column m with (−1)^{N−k} on row k, so only
    2m ≥ N is built, and only within ρ's highest nonzero diagonal, the edge by a_u† alone.
    Each sector meets ρ once.
    """
    d = rho.shape[0]
    size, band = 2 * d - 1, _bandwidth(rho)
    out = np.zeros((size, size))
    if band == 0:
        # column n of sector 2n holds (−1)^{n−j}·C(n, j)·√((2j)!(2n−2j)!)/(2ⁿn!) on row 2j
        n, j = np.arange(d)[:, None], np.arange(d - 1)
        first = np.cumprod(np.r_[1.0, -np.sqrt((2 * j + 1) / (2 * j + 2.0))])[:, None]
        ratio = -np.sqrt(np.maximum((n - j) * (2 * j + 1) / ((j + 1) * (2 * n - 2 * j - 1.0)), 0))
        column = np.cumprod(np.hstack((first, ratio)), axis=1) * np.diag(rho).real[:, None]
        n, j = np.nonzero(column)
        out[2 * j, 2 * (n - j)] = column[n, j]
        return out
    if size <= PRODUCT_MAX_SIZE:
        box = np.zeros((size, size), dtype=np.complex128)
        box[:d, :d] = rho.T
        idx, blocks = _sectors("bs", 0.5, size, size)
        sums = np.empty((size * size, 2))
        sums[idx] = blocks @ box.view(np.float64).reshape(-1, 2)[idx]
    else:
        root = np.sqrt(np.arange(size))
        rev, alternate = root[::-1].copy(), np.where(np.arange(size + 1) % 2 == 0, 1.0, -1.0)
        # the weights of columns m − 1 and m of sector N − 1 in column m of sector N, row N − 1
        sector, col = np.arange(1, size)[:, None], np.arange(d)
        edge = 2 * col - sector == band
        to_u = np.sqrt(col / 2.0) / np.where(edge, col, sector)
        to_v = np.where(edge, 0.0, np.sqrt(np.maximum(sector - col, 0) / 2.0) / sector)
        pairs = (np.tril(rho, -1) + np.tril(rho)).view(np.float64).reshape(d * d, 2)
        sums = np.zeros((size * size, 2))
        sums[0] = pairs[0]
        # row 1 + i holds column ⌈N/2⌉ + i at 1 … N+1, between zero columns that stand
        # in for the ladder operators' boundaries; row 0 the mirror of row 1, the last zeros
        cols = np.diag([0.0, 1.0, 0.0])
        for n in range(1, size):
            mid, hi = (n + 1) // 2, min(n, d - 1, (n + band) // 2)
            if n % 2 == 0:
                cols[0] = cols[1] * alternate[: n + 2]
            src = cols[n % 2 : n % 2 + hi - mid + 2]
            p, q = src[:-1] * to_u[n - 1, mid : hi + 1, None], src[1:] * to_v[n - 1, mid : hi + 1, None]
            cols = np.zeros((hi - mid + 3, n + 3))
            vec = cols[1:-1, 1:-1]
            np.multiply((p + q)[:, : n + 1], root[: n + 1], out=vec)
            vec += (p - q)[:, 1:] * rev[size - 1 - n :]
            sums[n : n * size + 1 : size - 1] = vec.T @ pairs[n + mid * (d - 1) : n + hi * (d - 1) + 1 : d - 1]
    sums = sums.reshape(size, size, 2)
    out[:, ::2], out[:, 1::2] = sums[:, ::2, 0], sums[:, 1::2, 1]
    return out


def wigner(state: np.ndarray, grid: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """Sample W(β) of the one-mode ket or density matrix, normalized to unit trace, on a
    rectangular grid (row-major)."""
    _check(state)
    rho = _density(state)
    weight = float(np.real(np.trace(rho)))
    if weight <= 0:
        raise ValueError("cannot evaluate the Wigner function of a zero-weight state")
    rho = rho / weight
    # a grid whose spacing overflows gives non-finite axes and W, which WignerGrid rejects
    with np.errstate(over="ignore", invalid="ignore"):
        re, im, phi_re, phi_im = _grid_tables(grid, 2 * rho.shape[0] - 1)
        values = (phi_im.T @ _sector_matrix(rho).T) @ phi_re
    return WignerGrid(re.copy(), im.copy(), values)


def _fock_populations(state: np.ndarray) -> np.ndarray | None:
    """The photon-number populations of a Fock-diagonal state, unnormalized, else ``None``."""
    rho = _density(state)
    p = rho.diagonal()
    if np.count_nonzero(rho) > np.count_nonzero(p):
        return None
    return p.real


def fidelity(reference: np.ndarray, state: np.ndarray) -> float:
    """Jozsa's fidelity of ``state`` with ``reference``, both normalized first.

    For a pure reference |φ⟩ it reduces to F = ⟨φ|ρ|φ⟩ (:func:`_pure_fidelity`).  A
    mixed reference and a state both diagonal in the Fock basis (a thermal input against
    a charge-dephased branch) give F = (Σₙ √(pₙqₙ))² from their populations
    (:func:`_population_fidelity`); any other mixed reference goes to
    :func:`uhlmann_fidelity`, whose eigenvalue floor would drop the small but real pₙqₙ
    of a thermal tail.  Each is a ket or a density matrix, both on the same levels.
    """
    _check(reference, state)
    if reference.ndim == 1:
        return _pure_fidelity(reference, state)
    p, q = _fock_populations(reference), _fock_populations(state)
    if p is None or q is None:
        return _uhlmann(reference, _density(state))
    return _population_fidelity(p, q)


def _pure_fidelity(reference: np.ndarray, state: np.ndarray) -> float:
    """⟨φ|ρ|φ⟩/Tr ρ (|⟨φ|ψ⟩|²/⟨ψ|ψ⟩ for a ket), |φ⟩ the normalized ``reference``; unchecked."""
    ref = reference / np.sqrt(float((np.abs(reference) ** 2).sum()))
    if state.ndim == 1:
        val = abs(np.vdot(ref, state)) ** 2 / float((np.abs(state) ** 2).sum())
    else:
        val = float(np.real(ref.conj() @ state @ ref)) / float(state.trace().real)
    # clamp only boundary-grazing numerical noise
    return 0.0 if -1e-9 <= val < 0.0 else 1.0 if 1.0 < val <= 1.0 + 1e-9 else float(val)


def _population_fidelity(p: np.ndarray, q: np.ndarray) -> float:
    """(Σₙ √(pₙqₙ))² of two photon-number distributions, each normalized first; unchecked."""
    val = float(np.sqrt(p / p.sum() * (q / q.sum())).sum() ** 2)
    return min(val, 1.0) if val <= 1.0 + 1e-9 else val


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(ρ,σ) = (Tr√(√ρ σ √ρ))² of two density matrices on the same levels, both normalized first."""
    _check(rho, sigma)
    return _uhlmann(rho, sigma)


def _uhlmann(rho: np.ndarray, sigma: np.ndarray) -> float:
    """:func:`uhlmann_fidelity` of two arrays already checked."""
    r = rho / float(rho.trace().real)
    s = sigma / float(sigma.trace().real)
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
