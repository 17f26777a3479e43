import decimal
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qocsim import phasespace
from qocsim.phasespace import (
    DEFAULT_GRID,
    GridSpec,
    NonFiniteWignerError,
    fidelity,
    grid_integral,
    min_wigner,
    wigner,
)
from qocsim.scheme import SchemeParams, run_interferometer
from reference import (coherent_state, fock_state, gaussian_wigner_oracle, parity_expectation,
                       thermal_state, to_mixed, vacuum, wigner_point)

TWO_OVER_PI = 2.0 / math.pi


def _at(state, beta: complex, grid_spec: GridSpec) -> float:
    """The value of ``wigner(state, grid_spec)`` at the grid point β."""
    grid = wigner(state, grid_spec)
    i, j = np.flatnonzero(grid.im_axis == beta.imag), np.flatnonzero(grid.re_axis == beta.real)
    assert i.size == j.size == 1, f"{beta} is not a point of {grid_spec}"
    return float(grid.values[i[0], j[0]])


AROUND_ORIGIN = GridSpec.square(-1.0, 1.0, 3)  # holds 0 and 1


def test_vacuum_wigner_at_origin():
    state = vacuum(12)
    assert _at(state, 0j, AROUND_ORIGIN) == pytest.approx(TWO_OVER_PI, abs=1e-9)


def test_coherent_wigner_peak():
    state = coherent_state(1.0, 25)
    assert _at(state, 1 + 0j, AROUND_ORIGIN) == pytest.approx(TWO_OVER_PI, abs=1e-9)


def test_thermal_wigner_at_origin():
    state = thermal_state(1.0, 30)
    assert _at(state, 0j, AROUND_ORIGIN) == pytest.approx(TWO_OVER_PI / 3.0, abs=1e-9)


def test_fock_one_wigner_at_origin():
    state = fock_state(1, 12)
    assert _at(state, 0j, AROUND_ORIGIN) == pytest.approx(-TWO_OVER_PI, abs=1e-9)


@pytest.mark.parametrize(
    "kind,params,expected",
    [
        ("coherent", 1.0, TWO_OVER_PI * math.exp(-2.0 * 4.0)),
        ("thermal", 1.0, TWO_OVER_PI / 3.0),
    ],
)
def test_gaussian_oracle_values(kind, params, expected):
    beta = -1.0 if kind == "coherent" else 0.0
    assert gaussian_wigner_oracle(kind, params, beta) == pytest.approx(expected, rel=1e-12)


def test_wigner_matches_gaussian_oracle_on_disk():
    d = 30
    cut = d
    grid_spec = GridSpec.square(-3.0, 3.0, 9)
    for kind, state in (("coherent", coherent_state(1.0, cut)), ("thermal", thermal_state(1.0, cut))):
        grid = wigner(state, grid_spec)
        for i, y in enumerate(grid.im_axis):
            for j, x in enumerate(grid.re_axis):
                beta = complex(x, y)
                if abs(beta) <= 3.0:
                    assert grid.values[i, j] == pytest.approx(
                        gaussian_wigner_oracle(kind, 1.0, beta), abs=1e-6
                    )


@pytest.mark.parametrize("d", [480, 600])
def test_far_point_whose_first_hermite_function_underflows(d):
    # at β = 20, φ_0(2·Re β) = π^(-1/4)·e^(-800) underflows while the φ_k near
    # k = 800 are O(0.1): a table without its binary exponent gives W = 0 here.
    # At d = 480 the truncation of the coherent state moves W by 7.9e-6; at
    # d = 600 the kernel's own rounding is left (1.8e-14), and a walk that
    # builds each column by one ladder operator alone is 1.7e-4 off
    grid = wigner(coherent_state(19.0, d), GridSpec((19.5, 20.0, 2), (-0.5, 0.0, 2)))
    tol = 1e-5 if d == 480 else 1e-12
    for i, y in enumerate(grid.im_axis):
        for j, x in enumerate(grid.re_axis):
            want = gaussian_wigner_oracle("coherent", 19.0, complex(x, y))
            assert abs(grid.values[i, j] - want) <= tol


@pytest.mark.parametrize("d", [12, 40, 64])
def test_wigner_matches_displaced_parity_definition(d):
    # random mixed state with coherences between all levels
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = rho
    # six points with 0.4 <= |beta| <= 4.2
    grid_spec = GridSpec((-2.97, 2.97, 3), (-0.4, 2.97, 2))
    grid = wigner(state, grid_spec)

    # W(beta) = (2/pi) sum_n (-1)^n [D(-beta) rho D(-beta)^dag]_nn on 260 levels
    big = 260
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    padded = np.zeros((big, big), dtype=np.complex128)
    padded[:d, :d] = rho
    parity = (-1.0) ** np.arange(big)
    for i, im in enumerate(grid.im_axis):
        for j, re in enumerate(grid.re_axis):
            beta = complex(re, im)
            disp = expm(-beta * a.conj().T + np.conj(beta) * a)
            shifted = disp @ padded @ disp.conj().T
            expected = TWO_OVER_PI * float(parity @ np.real(np.diag(shifted)))
            assert abs(grid.values[i, j] - expected) <= 1e-12
            assert abs(wigner_point(state, beta) - grid.values[i, j]) <= 5e-15


OFF_CENTRE_GRID = GridSpec((-0.83, 2.41, 23), (0.37, 1.96, 17))


@pytest.mark.parametrize("grid_spec", [DEFAULT_GRID, OFF_CENTRE_GRID],
                         ids=["default-grid", "off-centre-grid"])
@pytest.mark.parametrize("d", [2, 12, 40, "pd1-branch", "thermal-branch"])
def test_wigner_grid_matches_pointwise_kernel(d, grid_spec):
    if d == "pd1-branch":  # a heralded branch, unnormalized: its trace is ≈0.03
        state = run_interferometer(SchemeParams(alpha=1.0)).pd1_branch
        assert 0.0 < np.trace(state).real < 0.1
    elif d == "thermal-branch":  # Fock-diagonal: the sector columns in closed form
        state = run_interferometer(SchemeParams(input_kind="thermal", nbar=1.0)).pd1_branch
    else:
        rng = np.random.default_rng(1000 + d)
        g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        state = g @ g.conj().T
    grid = wigner(state, grid_spec)
    betas = grid.re_axis[None, :] + 1j * grid.im_axis[:, None]
    assert np.max(np.abs(grid.values - wigner_point(state, betas))) <= 5e-15


def _hex(grid) -> list[str]:
    return [float(v).hex() for v in grid.values.ravel()]


@pytest.mark.parametrize("grid_spec", [DEFAULT_GRID, OFF_CENTRE_GRID],
                         ids=["default-grid", "off-centre-grid"])
def test_sector_walk_within_the_highest_nonzero_diagonal_matches_the_full_walk(
    grid_spec, monkeypatch
):
    # the sector columns outside ρ's band meet only zeros of ρ.  The band's
    # edge column (or, for a Fock-diagonal ρ, the closed form) rounds
    # differently from the full walk, which builds it from its outer
    # neighbour: by less than one unit in the last place of 2/π (≤ 6.3e-17 here).
    # The banded case sits above the cap, where M is the walk's, not the product's
    branch = run_interferometer(SchemeParams(input_kind="thermal", nbar=1.0)).pd1_branch
    d = phasespace.PRODUCT_MAX_SIZE // 2 + 2
    assert 2 * d - 1 > phasespace.PRODUCT_MAX_SIZE
    rho = np.diag(np.linspace(1.0, 0.2, d)).astype(np.complex128)
    rho[np.arange(d - 3), np.arange(3, d)] = 0.05 + 0.02j  # ρ_{n,n+3}
    rho += np.triu(rho, 1).conj().T
    banded = rho
    for state, band in ((branch, 0), (banded, 3)):
        assert phasespace._bandwidth(state) == band
        skipped = wigner(state, grid_spec).values
        with monkeypatch.context() as m:
            m.setattr(phasespace, "_bandwidth", lambda rho: rho.shape[0] - 1)
            full = wigner(state, grid_spec).values
        assert np.max(np.abs(skipped - full)) <= np.spacing(TWO_OVER_PI)


@pytest.mark.parametrize("grid_spec", [DEFAULT_GRID, OFF_CENTRE_GRID],
                         ids=["default-grid", "off-centre-grid"])
@pytest.mark.parametrize("d", [*sorted({2, 8, 12, (phasespace.PRODUCT_MAX_SIZE + 1) // 2}),
                               "pd1-branch"])
def test_sector_product_up_to_the_cap_matches_the_walk(d, grid_spec, monkeypatch):
    # up to the cap M is one product of the cached 50:50 sectors at the cap, of which
    # it keeps the (2d − 1)² corner; with the cap at 0 every grid takes the walk.  The
    # two differ by ≤ 4.4e-16 on these states (and on 600 random ones); a box that holds ρ,
    # not ρᵀ, is 0.1–0.6 off
    if d == "pd1-branch":  # complex coherences, at 12 levels
        params = SchemeParams(alpha=0.8 - 0.9j, cutoff=12, leak_budget=1e-4)
        state = run_interferometer(params).pd1_branch
    else:
        rng = np.random.default_rng(2000 + d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        state = g @ g.conj().T
    size = 2 * len(state) - 1
    assert size <= phasespace.PRODUCT_MAX_SIZE
    keys, sectors = [], phasespace._sectors
    with monkeypatch.context() as m:
        m.setattr(phasespace, "_sectors", lambda *key: keys.append(key) or sectors(*key))
        product = wigner(state, grid_spec).values
        m.setattr(phasespace, "PRODUCT_MAX_SIZE", 0)
        walk = wigner(state, grid_spec).values
    cap = phasespace.PRODUCT_MAX_SIZE
    assert keys == [("bs", 0.5, cap, cap)]
    assert np.max(np.abs(product - walk)) <= 1e-15


@pytest.mark.parametrize("size", [*range(15, 24, 2), 25, 79])
def test_sliced_hermite_rows_equal_a_table_built_at_that_size(size):
    # one table per power of two serves every 2d − 1 below it: d = 8…12 (the product
    # route) and two walk sizes read the same rows as a table of exactly 2d − 1
    re, im, phi_re, phi_im = phasespace._grid_tables(OFF_CENTRE_GRID, 1 << (size - 1).bit_length())
    assert phi_re.shape[0] >= size
    direct = phasespace._hermite_functions(2.0 * np.concatenate((re, im)), size)
    assert np.array_equal(phi_re[:size], direct[:, : re.size])
    exact = phasespace._grid_tables.__wrapped__(OFF_CENTRE_GRID, size)
    for sliced, built in zip((phi_re[:size], phi_im[:size]), exact[2:]):
        assert sliced.tobytes() == built.tobytes()


def test_cycling_d_8_to_12_builds_two_tables_per_grid():
    # 2d − 1 = 15…23 round up to 16 and 32 rows; a table per size, four kept,
    # rebuilt all ten on two cycles
    states = {d: coherent_state(0.6, d) for d in range(8, 13)}
    phasespace._grid_tables.cache_clear()
    for grid_spec in (DEFAULT_GRID, OFF_CENTRE_GRID):
        before = phasespace._grid_tables.cache_info().misses
        for _ in range(2):
            for state in states.values():
                wigner(state, grid_spec)
        assert phasespace._grid_tables.cache_info().misses - before <= 2


def test_a_returned_grid_cannot_change_a_later_one():
    # the grid's axes and Hermite tables are computed once per GridSpec and shared
    state = coherent_state(0.8, 10)
    spec = GridSpec((-1.0, 1.0, 5), (-0.5, 2.0, 4))
    first = wigner(state, spec)
    values = first.values.copy()
    first.re_axis[:] = 7.0
    first.im_axis[:] = 7.0
    later = wigner(state, spec)
    assert np.array_equal(later.re_axis, np.linspace(-1.0, 1.0, 5))
    assert np.array_equal(later.im_axis, np.linspace(-0.5, 2.0, 4))
    assert _hex(later) == [float(v).hex() for v in values.ravel()]


def test_wigner_point_rejects_a_zero_weight_state():
    zero = np.zeros((4, 4), dtype=complex)
    for evaluate in (lambda s: wigner_point(s, 0.0), wigner):
        with pytest.raises(ValueError, match="zero-weight state"):
            evaluate(zero)


def test_parity_expectation_rejects_a_zero_weight_state():
    zero = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError, match="zero-weight state"):
        parity_expectation(zero)


def test_wigner_overflow_is_a_typed_error():
    # bounds within the float range whose spacing is not: the axes and W are
    # not finite, which WignerGrid rejects; numpy's warnings are silenced, not printed
    with warnings.catch_warnings(), pytest.raises(NonFiniteWignerError):
        warnings.simplefilter("error", RuntimeWarning)
        wigner(coherent_state(1.0, 12), GridSpec.square(-1.7e308, 1.7e308, 5))


@pytest.mark.parametrize("kind", ["coherent", "thermal"])
def test_a_far_grid_evaluates_to_the_gaussian_values(kind):
    # every φ_k at 2e20 underflows to 0, so W is 0 off the centre and exact at it
    state = (coherent_state if kind == "coherent" else thermal_state)(1.0, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = wigner(state, GridSpec.square(-1e20, 1e20, 5))
        # twice these abscissae overflows; W is 0 there all the same
        assert not wigner(state, GridSpec((-1e308, -9e307, 2), (-1.0, 1.0, 3))).values.any()
    for i, y in enumerate(grid.im_axis):
        for j, x in enumerate(grid.re_axis):
            want = gaussian_wigner_oracle(kind, 1.0, complex(x, y))
            assert abs(grid.values[i, j] - want) <= 1e-15
            assert (grid.values[i, j] == 0.0) == (x != 0.0 or y != 0.0)


def test_parity_identity_at_origin():
    d = 20
    state = coherent_state(0.9, d)
    w0 = _at(state, 0j, AROUND_ORIGIN)
    assert w0 == pytest.approx(TWO_OVER_PI * parity_expectation(state), abs=1e-10)


def test_grid_values_and_min_wigner():
    state = fock_state(1, 10)
    grid = wigner(state, GridSpec.square(-2.0, 2.0, 41))
    beta_min, wmin = min_wigner(grid)
    assert wmin == pytest.approx(-TWO_OVER_PI, abs=1e-6)
    assert abs(beta_min) < 1e-12
    vac_grid = wigner(vacuum(10), GridSpec.square(-2.0, 2.0, 41))
    assert min_wigner(vac_grid)[1] > 0.0


def test_grid_integral_is_unit():
    # Riemann sum over the square |Re β|, |Im β| <= |alpha| + 4
    state = coherent_state(1.0, 20)
    grid = wigner(state, GridSpec.square(-5.0, 5.0, 81))
    assert grid_integral(grid) == pytest.approx(1.0, abs=1e-3)


def test_fidelity_identity_and_overlap():
    d = 16
    assert fidelity(vacuum(d), vacuum(d)) == pytest.approx(1.0, abs=1e-12)
    f = fidelity(coherent_state(1.0, d), to_mixed(vacuum(d)))
    assert f == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_fidelity_attenuated_coherent_formula():
    d = 24
    t = math.sqrt(0.99)
    alpha = 1.0
    f = fidelity(coherent_state(alpha, d), coherent_state(t * alpha, d))
    assert f == pytest.approx(math.exp(-((1 - t) ** 2) * alpha**2), abs=1e-10)


def test_fidelity_linear_under_mixing():
    d = 10
    ref = coherent_state(0.5, d)
    rho1 = to_mixed(fock_state(0, d))
    rho2 = to_mixed(fock_state(1, d))
    p = 0.3
    mix = p * rho1 + (1 - p) * rho2
    lhs = fidelity(ref, mix)
    rhs = p * fidelity(ref, rho1) + (1 - p) * fidelity(ref, rho2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fidelity_boundary_clamp():
    d = 8
    state = vacuum(d)
    assert 0.0 <= fidelity(state, state) <= 1.0


def _indefinite(eps: float, rotated: bool = False) -> np.ndarray:
    """diag(1 + ε, −ε) of trace 1, Hermitian but not positive, optionally in a rotated
    basis: what rounding can hand a fidelity at the edge of [0, 1]."""
    rho = np.diag([1.0 + eps, -eps]).astype(np.complex128)
    if rotated:
        u = np.array([[0.8, -0.6j], [-0.6j, 0.8]])
        rho = u @ rho @ u.conj().T
    return rho


# each route's fidelity F(ε) of two arrays that put it at 1 + ε
AT_ONE_PLUS = {
    # ⟨0|ρ|0⟩ = 1 + ε
    "pure": lambda eps: fidelity(np.eye(2)[0], _indefinite(eps)),
    # (Σₙ √(pₙqₙ))² = (1 + 2δ)² ≈ 1 + 4δ for the populations (1 + δ, −δ) twice
    "populations": lambda eps: fidelity(_indefinite(eps / 4), _indefinite(eps / 4)),
    # (1 + δ)² ≈ 1 + 2δ once the −δ eigenvalue is floored
    "uhlmann": lambda eps: fidelity(_indefinite(eps / 2, True), _indefinite(eps / 2, True)),
}


@pytest.mark.parametrize("route", list(AT_ONE_PLUS))
def test_fidelity_clamps_only_boundary_grazing_noise(route):
    # within 1e-9 outside [0, 1] a fidelity is clamped, further out it is returned as
    # is; only the pure route can land below 0, the others being squares
    assert AT_ONE_PLUS[route](5e-10) == 1.0
    assert AT_ONE_PLUS[route](2e-9) == pytest.approx(1.0 + 2e-9, abs=1e-15)
    if route == "pure":  # ⟨1|ρ|1⟩ = −ε
        assert fidelity(np.eye(2)[1], _indefinite(5e-10)) == 0.0
        assert fidelity(np.eye(2)[1], _indefinite(2e-9)) == pytest.approx(-2e-9, abs=1e-18)


def test_a_wigner_grid_whose_values_do_not_fit_its_axes_is_rejected():
    with pytest.raises(phasespace.DimensionMismatchError, match=r"\(\|im\|, \|re\|\)"):
        phasespace.WignerGrid(np.zeros(3), np.zeros(2), np.zeros((3, 2)))


def test_uhlmann_matches_pure_overlap():
    # two coherent density matrices are not Fock-diagonal: fidelity takes Uhlmann's route
    d = 12
    a = coherent_state(0.6, d)
    b = coherent_state(0.2, d)
    f_pure = abs(np.vdot(a, b)) ** 2
    f_uhl = fidelity(to_mixed(a), to_mixed(b))
    assert f_uhl == pytest.approx(f_pure, abs=1e-9)
    assert fidelity(to_mixed(a), to_mixed(a)) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_with_a_mixed_reference_matches_the_pure_overlap():
    # a pure reference given as a density matrix takes the Uhlmann path
    rng = np.random.default_rng(2315)

    def vec():
        return rng.normal(size=8) + 1j * rng.normal(size=8)

    for _ in range(20):
        phi = vec()
        g = np.column_stack([vec() for _ in range(3)])
        rho = g @ g.conj().T
        for state in (rho, vec()):
            assert abs(fidelity(to_mixed(phi), state) - fidelity(phi, state)) <= 1e-10


def _fidelity_to_40_digits(p: np.ndarray, q: np.ndarray) -> float:
    """(Σₙ √(pₙqₙ))² of two population vectors, each normalized, in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        p = [decimal.Decimal(float(x)) for x in p]
        q = [decimal.Decimal(float(x)) for x in q]
        sp, sq = sum(p), sum(q)
        root = sum((x / sp * (y / sq)).sqrt() for x, y in zip(p, q))
        return float(root * root)


@pytest.mark.parametrize("nbar", [0.5, 0.95, 2.0])
def test_thermal_fidelities_match_a_40_digit_sum(nbar):
    # both states are Fock-diagonal; the Uhlmann route's eigenvalue floor used
    # to drop their real tail (-2.6e-7 at nbar = 0.95)
    res = run_interferometer(SchemeParams(input_kind="thermal", nbar=nbar))
    c = res.cutoff
    T = res.params.transmittivity
    for got, ref, branch in (
        (res.fidelity_pd2_vs_input, thermal_state(nbar, c), res.pd2_branch),
        (res.fidelity_pd2_vs_attenuated, thermal_state(T**2 * nbar, c), res.pd2_branch),
        (res.fidelity_pd1_vs_input, thermal_state(nbar, c), res.pd1_branch),
    ):
        want = _fidelity_to_40_digits(np.diag(ref).real, np.diag(branch).real)
        assert abs(got - want) <= 1e-14


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec.square(1.0, -1.0, 11)
    with pytest.raises(ValueError):
        GridSpec.square(-1.0, 1.0, 1)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            GridSpec((-1.0, 1.0, 5), (lo, hi, 5))


def test_default_grid_shape():
    assert DEFAULT_GRID.re_range == (-3.0, 3.0, 81)
    assert DEFAULT_GRID.im_range == (-3.0, 3.0, 81)
