import csv
import decimal
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qocsim import phasespace
from qocsim.core import Cutoff, MixedState, PureState, to_mixed
from qocsim.elements import coherent_state, fock_state, thermal_state, vacuum
from qocsim.phasespace import (
    DEFAULT_GRID,
    GridSpec,
    NonFiniteWignerError,
    fidelity,
    grid_integral,
    min_wigner,
    save_grid_csv,
    save_grid_json,
    uhlmann_fidelity,
    wigner,
)
from qocsim.scheme import SchemeParams, run_interferometer
from reference import gaussian_wigner_oracle, parity_expectation, wigner_point

TWO_OVER_PI = 2.0 / math.pi


def test_vacuum_wigner_at_origin():
    state = vacuum(Cutoff(12))
    assert wigner_point(state, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-9)


def test_coherent_wigner_peak():
    state = coherent_state(1.0, Cutoff(25))
    assert wigner_point(state, 1.0) == pytest.approx(TWO_OVER_PI, abs=1e-9)


def test_thermal_wigner_at_origin():
    state = thermal_state(1.0, Cutoff(30))
    assert wigner_point(state, 0.0) == pytest.approx(TWO_OVER_PI / 3.0, abs=1e-9)


def test_fock_one_wigner_at_origin():
    state = fock_state(1, Cutoff(12))
    assert wigner_point(state, 0.0) == pytest.approx(-TWO_OVER_PI, abs=1e-9)


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
    cut = Cutoff(d)
    pts = [
        complex(x, y)
        for x in np.linspace(-3, 3, 9)
        for y in np.linspace(-3, 3, 9)
        if abs(complex(x, y)) <= 3.0
    ]
    coh = coherent_state(1.0, cut)
    ther = thermal_state(1.0, cut)
    for beta in pts:
        assert wigner_point(coh, beta) == pytest.approx(
            gaussian_wigner_oracle("coherent", 1.0, beta), abs=1e-6
        )
        assert wigner_point(ther, beta) == pytest.approx(
            gaussian_wigner_oracle("thermal", 1.0, beta), abs=1e-6
        )


@pytest.mark.parametrize("d", [12, 40, 64])
def test_wigner_matches_displaced_parity_definition(d):
    # random mixed state with coherences between all levels
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = MixedState.create(("a",), Cutoff(d), rho)
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
            assert abs(wigner_point(state, beta) - grid.values[i, j]) <= 1e-15


def _pointwise_wigner_values(rho: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """The Laguerre-series kernel with every Clenshaw recurrence run on every β.

    A pointwise reference for the grid kernel, which runs each recurrence once
    per distinct radius and gathers the sums back onto the grid.
    """
    d = rho.shape[0]
    x = 4.0 * np.abs(betas) ** 2
    rho2 = 2.0 * rho - np.diag(np.diag(rho))
    total = np.zeros(betas.shape, dtype=np.complex128)
    for L in range(d - 1, -1, -1):
        c = np.diag(rho2, L)
        y0, y1 = c[-1], 0.0
        for k in range(c.size - 1, 0, -1):
            y0, y1 = (
                c[k - 1] - y1 * np.sqrt(k * (k + L) / ((k + 1) * (k + L + 1))),
                y0 - y1 * (2 * k + L + 1 - x) / np.sqrt((k + 1) * (k + L + 1)),
            )
        c_L = y0 - y1 * (L + 1 - x) / np.sqrt(L + 1)
        total = c_L + total * (2.0 * betas / np.sqrt(L + 1))
    return (2.0 / np.pi) * np.exp(-0.5 * x) * total.real


# most radii of the default grid repeat (1,313 distinct among 6,561 points);
# this off-centre, non-square grid repeats none
OFF_CENTRE_GRID = GridSpec((-0.83, 2.41, 23), (0.37, 1.96, 17))


@pytest.mark.parametrize("grid_spec", [DEFAULT_GRID, OFF_CENTRE_GRID],
                         ids=["default-grid", "off-centre-grid"])
@pytest.mark.parametrize("d", [2, 12, 40, "pd1-branch"])
def test_wigner_grid_matches_pointwise_kernel(d, grid_spec):
    if d == "pd1-branch":  # a heralded branch, unnormalized: its trace is ≈0.03
        state = run_interferometer(SchemeParams(alpha=1.0)).pd1_branch
        assert 0.0 < state.trace_tag < 0.1
    else:
        rng = np.random.default_rng(1000 + d)
        g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        state = MixedState.create(("a",), Cutoff(d), g @ g.conj().T)
    grid = wigner(state, grid_spec)
    rho = state.matrix / float(np.real(np.trace(state.matrix)))  # as wigner() normalizes
    betas = grid.re_axis[None, :] + 1j * grid.im_axis[:, None]
    distinct = np.unique(4.0 * np.abs(betas) ** 2).size
    assert (distinct < betas.size) == (grid_spec is DEFAULT_GRID)
    assert np.max(np.abs(grid.values - _pointwise_wigner_values(rho, betas))) <= 1e-15
    # a single point of the same state runs the same operations as its grid entry
    rows, cols = betas.shape
    for i, j in ((0, 0), (rows // 2, cols // 2), (rows - 1, cols // 3), (rows // 4, cols - 1)):
        assert wigner_point(state, betas[i, j]) == grid.values[i, j]


def _hex(grid) -> list[str]:
    return [float(v).hex() for v in grid.values.ravel()]


@pytest.mark.parametrize("grid_spec", [DEFAULT_GRID, OFF_CENTRE_GRID],
                         ids=["default-grid", "off-centre-grid"])
def test_laguerre_sum_from_the_highest_nonzero_diagonal_changes_no_bit(grid_spec, monkeypatch):
    # every diagonal above ρ's highest nonzero one adds exact zeros
    branch = run_interferometer(SchemeParams(input_kind="thermal", nbar=1.0)).pd1_branch
    d = 8
    rho = np.diag(np.linspace(1.0, 0.2, d)).astype(np.complex128)
    rho[np.arange(d - 3), np.arange(3, d)] = 0.05 + 0.02j  # ρ_{n,n+3}
    rho += np.triu(rho, 1).conj().T
    banded = MixedState.create(("a",), Cutoff(d), rho)
    for state, top in ((branch, 0), (banded, 3)):
        assert phasespace._highest_diagonal(state.matrix) == top
        skipped = wigner(state, grid_spec)
        with monkeypatch.context() as m:
            m.setattr(phasespace, "_highest_diagonal", lambda rho: rho.shape[0] - 1)
            full = wigner(state, grid_spec)
        assert _hex(skipped) == _hex(full)


def test_a_returned_grid_cannot_change_a_later_one():
    # the grid geometry is computed once per GridSpec and shared
    state = coherent_state(0.8, Cutoff(10))
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
    zero = MixedState.create(("a",), Cutoff(4), np.zeros((4, 4)))
    for evaluate in (lambda s: wigner_point(s, 0.0), wigner):
        with pytest.raises(ValueError, match="zero-weight state"):
            evaluate(zero)


def test_parity_expectation_rejects_a_zero_weight_state():
    zero = MixedState.create(("a",), Cutoff(3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="zero-weight state"):
        parity_expectation(zero)


def test_wigner_overflow_is_a_typed_error():
    # finite but far out: the truncated series overflows to inf and nan
    with pytest.raises(NonFiniteWignerError):
        wigner(coherent_state(1.0, Cutoff(12)), GridSpec.square(-1e20, 1e20, 5))


def test_parity_identity_at_origin():
    d = 20
    state = coherent_state(0.9, Cutoff(d))
    w0 = wigner_point(state, 0.0)
    assert w0 == pytest.approx(TWO_OVER_PI * parity_expectation(state), abs=1e-10)


def test_grid_values_and_min_wigner():
    state = fock_state(1, Cutoff(10))
    grid = wigner(state, GridSpec.square(-2.0, 2.0, 41))
    beta_min, wmin = min_wigner(grid)
    assert wmin == pytest.approx(-TWO_OVER_PI, abs=1e-6)
    assert abs(beta_min) < 1e-12
    vac_grid = wigner(vacuum(Cutoff(10)), GridSpec.square(-2.0, 2.0, 41))
    assert min_wigner(vac_grid)[1] > 0.0


def test_grid_integral_is_unit():
    # Riemann sum over the square |Re β|, |Im β| <= |alpha| + 4
    state = coherent_state(1.0, Cutoff(20))
    grid = wigner(state, GridSpec.square(-5.0, 5.0, 81))
    assert grid_integral(grid) == pytest.approx(1.0, abs=1e-3)


def test_wigner_requires_single_mode():
    from qocsim.core import tensor

    joint = tensor(vacuum(Cutoff(4), "a"), vacuum(Cutoff(4), "b"))
    with pytest.raises(Exception):
        wigner_point(joint, 0.0)


def test_fidelity_identity_and_overlap():
    c = Cutoff(16)
    assert fidelity(vacuum(c), vacuum(c)) == pytest.approx(1.0, abs=1e-12)
    f = fidelity(coherent_state(1.0, c), to_mixed(vacuum(c)))
    assert f == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_fidelity_attenuated_coherent_formula():
    c = Cutoff(24)
    t = math.sqrt(0.99)
    alpha = 1.0
    f = fidelity(coherent_state(alpha, c), coherent_state(t * alpha, c))
    assert f == pytest.approx(math.exp(-((1 - t) ** 2) * alpha**2), abs=1e-10)


def test_fidelity_linear_under_mixing():
    c = Cutoff(10)
    ref = coherent_state(0.5, c)
    rho1 = to_mixed(fock_state(0, c))
    rho2 = to_mixed(fock_state(1, c))
    p = 0.3
    mix = MixedState.create(("a",), c, p * rho1.matrix + (1 - p) * rho2.matrix)
    lhs = fidelity(ref, mix)
    rhs = p * fidelity(ref, rho1) + (1 - p) * fidelity(ref, rho2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fidelity_boundary_clamp():
    c = Cutoff(8)
    state = vacuum(c)
    assert 0.0 <= fidelity(state, state) <= 1.0


def test_uhlmann_matches_pure_overlap():
    c = Cutoff(12)
    a = coherent_state(0.6, c)
    b = coherent_state(0.2, c)
    f_pure = abs(np.vdot(a.amps, b.amps)) ** 2
    f_uhl = uhlmann_fidelity(to_mixed(a), to_mixed(b))
    assert f_uhl == pytest.approx(f_pure, abs=1e-9)
    assert uhlmann_fidelity(to_mixed(a), to_mixed(a)) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_with_a_mixed_reference_matches_the_pure_overlap():
    # a pure reference given as a density matrix takes the Uhlmann path
    rng = np.random.default_rng(2315)
    c = Cutoff(8)

    def vec():
        return rng.normal(size=8) + 1j * rng.normal(size=8)

    for _ in range(20):
        phi = PureState.create(("a",), c, vec())
        g = np.column_stack([vec() for _ in range(3)])
        rho = MixedState.create(("a",), c, g @ g.conj().T)
        for state in (rho, PureState.create(("a",), c, vec())):
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
    c = Cutoff(res.cutoff)
    T = res.params.transmittivity
    for got, ref, branch in (
        (res.fidelity_pd2_vs_input, thermal_state(nbar, c), res.pd2_branch),
        (res.fidelity_pd2_vs_attenuated, thermal_state(T**2 * nbar, c), res.pd2_branch),
        (res.fidelity_pd1_vs_input, thermal_state(nbar, c), res.pd1_branch),
    ):
        want = _fidelity_to_40_digits(np.diag(ref.matrix).real, np.diag(branch.matrix).real)
        assert abs(got - want) <= 1e-14


def test_grid_serialization_round_trip(tmp_path):
    # the CLI's grid files, read back with csv and json alone
    state = coherent_state(0.8, Cutoff(14))
    grid = wigner(state, GridSpec.square(-1.5, 1.5, 11))
    csv_path = tmp_path / "w.csv"
    json_path = tmp_path / "w.json"
    save_grid_csv(grid, csv_path)
    save_grid_json(grid, json_path)
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["re", "im", "W"]
    re, im, w = np.array(rows, dtype=float).T  # row-major: re varies fastest
    shape = grid.values.shape
    assert np.array_equal(re.reshape(shape), np.broadcast_to(grid.re_axis, shape))
    assert np.array_equal(im.reshape(shape), np.broadcast_to(grid.im_axis[:, None], shape))
    assert np.array_equal(w.reshape(shape), grid.values)
    doc = json.loads(json_path.read_text())
    assert np.array_equal(doc["re_axis"], grid.re_axis)
    assert np.array_equal(doc["im_axis"], grid.im_axis)
    assert np.array_equal(doc["values"], grid.values)


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
