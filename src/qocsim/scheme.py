"""End-to-end heralded add/subtract interferometer on four modes (a, b, c, d).

Layout: the input rides on mode ``a``; BS1(a,b) and BS2(a,c) are weak taps of
equal intensity transmittivity T; a two-mode squeezer S(a,d) of coupling s sits
between them and PD0 heralds one idler photon on ``d`` (photon addition); the
two tap modes interfere on the 50:50 BS3 and are watched by the on-off
detectors PD1 (mode b) and PD2 (mode c), of configurable efficiencies.  PD0
resolves "exactly one" by default (``pd0_onoff`` makes it an on-off click).

:func:`build_fig1_circuit` states this circuit once, as ``circuits/fig1.qoc``
does, ending with the PD2 branch's heralds: no click at PD1, a click at PD2.
:func:`run_interferometer` forks it there: the part up to BS3 runs once, then
those two heralds give the PD2 branch, and the same two detectors with the
click moved to the other one the PD1 branch.

With the beam-splitter sign convention of :mod:`qocsim.elements`, BS3 is
applied to the ordered pair (c, b), which routes the difference combination of
the two add/subtract orderings — the identity operation, first order in r and
λ — to PD2, and the sum combination (1 + 2n̂) to PD1.  Swapping the BS3 pair
order exchanges the two detectors' roles; ``SchemeParams.swap_bs3_sign``
exposes that deliberately as a sign sanity check.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dsl import (Branches, CircuitSpec, ElementStmt, HeraldStmt, InputStmt, OutputStmt,
                  compile_circuit)
from .elements import _coherent_amplitudes, _thermal_populations
from .engine import execute_plan
from . import measurement
from .phasespace import (
    DEFAULT_GRID,
    GridSpec,
    WignerGrid,
    _population_fidelity,
    _pure_fidelity,
    min_wigner,
    wigner,
)

__all__ = [
    "SchemeParams",
    "SchemeResult",
    "build_fig1_circuit",
    "run_interferometer",
    "commutation_report",
    "branch_wigner",
]

MODES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class SchemeParams:
    """Interferometer configuration (both taps share the same T)."""

    input_kind: str = "coherent"  # coherent | thermal | fock
    alpha: complex = 1.0
    nbar: float = 1.0
    fock_n: int = 1
    transmittivity: float = 0.99
    coupling: float = 0.1
    eta_pd0: float = 1.0
    eta_pd1: float = 1.0
    eta_pd2: float = 1.0
    pd0_onoff: bool = False
    cutoff: int | None = None  # None: adaptive, sized per mode by compile_circuit
    leak_budget: float = 1e-6
    swap_bs3_sign: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.transmittivity < 1.0:
            raise ValueError("transmittivity must be in (0, 1)")
        if not cmath.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not 0.0 < self.coupling < math.inf:
            raise ValueError("coupling must be finite and > 0")
        if not all(0.0 <= eta <= 1.0 for eta in (self.eta_pd0, self.eta_pd1, self.eta_pd2)):
            raise ValueError("detector efficiencies must be in [0, 1]")
        if self.input_kind not in ("coherent", "thermal", "fock"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        if not (0 <= self.nbar < math.inf and self.fock_n >= 0):
            raise ValueError("nbar must be finite and >= 0, fock_n >= 0")
        if self.fock_n % 1:  # also inf, whose remainder is nan
            raise ValueError(f"fock_n must be an integer, got {self.fock_n!r}")
        if self.fock_n > sys.float_info.max:
            raise ValueError("fock_n is too large for a float")
        if self.cutoff is not None and self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.input_kind == "fock" and self.cutoff is not None and self.fock_n >= self.cutoff:
            raise ValueError(f"cutoff {self.cutoff} is not above fock_n = {self.fock_n}")
        if not 0 < self.leak_budget < math.inf:
            raise ValueError("leak_budget must be finite and > 0")

    @property
    def t(self) -> float:
        return math.sqrt(self.transmittivity)

    def input_stmt(self) -> InputStmt:
        if self.input_kind == "coherent":
            a = complex(self.alpha)
            return InputStmt("a", "coherent", (a.real, a.imag))
        if self.input_kind == "thermal":
            return InputStmt("a", "thermal", (float(self.nbar),))
        return InputStmt("a", "fock", (float(self.fock_n),))


def build_fig1_circuit(params: SchemeParams) -> CircuitSpec:
    """Fig. 1 as ``circuits/fig1.qoc`` states it: 4 unitaries, 3 heralds, 3 outputs; its
    last two heralds accept the PD2 branch, where :func:`_fork` cuts it."""
    bs3 = ("b", "c") if params.swap_bs3_sign else ("c", "b")
    pd0 = (HeraldStmt("d", "click", None, params.eta_pd0, True) if params.pd0_onoff
           else HeraldStmt("d", "exactly", 1, params.eta_pd0, False))
    operations = (
        ElementStmt("bs", ("a", "b"), params.transmittivity),
        ElementStmt("tmsq", ("a", "d"), params.coupling),
        pd0,
        ElementStmt("bs", ("a", "c"), params.transmittivity),
        ElementStmt("bs", bs3, 0.5),
        HeraldStmt("b", "noclick", None, params.eta_pd1, True),
        HeraldStmt("c", "click", None, params.eta_pd2, True),
    )
    inputs = (params.input_stmt(), *(InputStmt(m, "vacuum") for m in MODES[1:]))
    outputs = (OutputStmt("probs"), OutputStmt("fidelity", "a"), OutputStmt("state", "a"))
    return CircuitSpec(MODES, inputs, operations, outputs)


def _fork(spec: CircuitSpec) -> tuple[CircuitSpec, Branches]:
    """Fig. 1 cut before its two detector heralds: the shared part, without outputs, and
    the PD2 branch (those heralds) and PD1 branch (the click moved to the other one)."""
    *shared, dark, bright = spec.operations
    pd1 = (replace(bright, requirement=dark.requirement),
           replace(dark, requirement=bright.requirement))
    return replace(spec, operations=tuple(shared), outputs=()), ((dark, bright), pd1)


@dataclass
class SchemeResult:
    params: SchemeParams
    cutoff: int
    pd0_probability: float
    pd1_branch: np.ndarray  # mode a's (d, d) density matrix, unnormalized: trace = P(PD1-only | PD0)
    pd2_branch: np.ndarray
    pd1_weight: float  # conditional on the PD0 herald
    pd2_weight: float
    p_b: float  # click statistics of the PD0-heralded state after BS3
    p_c: float
    p_bc: float
    p_bc_given_b: float
    p_bc_given_c: float
    fidelity_pd2_vs_input: float | None
    # vs |√T·α⟩ (one tap) for a coherent input, thermal n̄T² (both taps) for a
    # thermal one, |n⟩ itself for a Fock one; the convention is still open.  Coherent
    # inputs compare kets, thermal and Fock ones populations (see run_interferometer)
    fidelity_pd2_vs_attenuated: float | None
    fidelity_pd1_vs_input: float | None
    leak_max: float


def run_interferometer(params: SchemeParams) -> SchemeResult:
    """Exact staged simulation of both accepted branches plus click statistics.

    One plan runs: Fig. 1 forked at its two detector heralds (:func:`_fork`),
    both branches conditioning the shared post-BS3 ensemble inside the same
    cutoff retry and leak checks.  The click statistics come from that ensemble
    too, each detector read from its herald.  The compiler sizes the branch
    stages with the shared ones, so each mode's adaptive cutoff is the larger
    of the two branch circuits' predictions for it, and either branch as a
    circuit of its own, run at these cutoffs, reproduces its numbers to rounding.
    ``SchemeResult.cutoff`` is the largest of them, mode a's.
    ``fidelity_pd2_vs_attenuated`` compares the PD2 branch with the input
    attenuated by one tap if it is coherent (|√T·α⟩) but by both if it is
    thermal (n̄T²), and with the input itself if it is a Fock state; which
    attenuation both should use is not settled.  Each fidelity reads its
    reference's own numbers, through the kernels of ``phasespace.fidelity``: a
    coherent input's kets give ⟨φ|ρ|φ⟩/Tr ρ, and a thermal or Fock input's
    populations, against the diagonal (charge-signed) branch, (Σₙ √(pₙqₙ))².
    """
    shared, branches = _fork(build_fig1_circuit(params))
    res = execute_plan(compile_circuit(shared, branches=branches, cutoff=params.cutoff,
                                       leak_budget=params.leak_budget))
    (ens_pd2, heralds_pd2), (ens_pd1, heralds_pd1) = res.branches

    w_pd2 = math.prod(h.probability for h in heralds_pd2)
    w_pd1 = math.prod(h.probability for h in heralds_pd1)

    post, w = res.final_state, res.weight
    # one pass over the post-BS3 ensemble serves all three click statistics
    detectors = branches[0]  # PD1's herald, then PD2's
    pops = post.populations([h.mode for h in detectors])
    click_b, click_c = (
        measurement.povm_diagonal("click", None, h.eta, h.onoff, res.cutoffs[h.mode])
        for h in detectors
    )
    p_b = float(click_b @ pops.sum(axis=1)) / w
    p_c = float(pops.sum(axis=0) @ click_c) / w
    p_bc = float(click_b @ pops @ click_c) / w

    rho_pd2 = ens_pd2.reduced("a", w_pd2)
    rho_pd1 = ens_pd1.reduced("a", w_pd1)

    d = res.cutoffs["a"]
    if ens_pd2.signs is None:  # a coherent input: kets against the branches' coherences
        fid, pd2, pd1 = _pure_fidelity, rho_pd2, rho_pd1
        alphas = (params.alpha, params.t * params.alpha)
        ref, atten = (_coherent_amplitudes(complex(a), d) for a in alphas)
    else:  # a thermal or Fock input: diagonal branches, compared by their populations
        fid, pd2, pd1 = _population_fidelity, rho_pd2.diagonal().real, rho_pd1.diagonal().real
        nbars = (params.nbar, params.transmittivity**2 * params.nbar)
        ref, atten = ((_thermal_populations(n, d) for n in nbars) if params.input_kind == "thermal"
                      else (np.eye(1, d, int(params.fock_n))[0],) * 2)

    return SchemeResult(
        params=params,
        cutoff=res.cutoff,
        pd0_probability=res.heralds[0].probability,
        pd1_branch=rho_pd1,
        pd2_branch=rho_pd2,
        pd1_weight=w_pd1,
        pd2_weight=w_pd2,
        p_b=p_b,
        p_c=p_c,
        p_bc=p_bc,
        p_bc_given_b=p_bc / p_b if p_b > 0 else float("nan"),
        p_bc_given_c=p_bc / p_c if p_c > 0 else float("nan"),
        fidelity_pd2_vs_input=fid(ref, pd2),
        fidelity_pd2_vs_attenuated=fid(atten, pd2),
        fidelity_pd1_vs_input=fid(ref, pd1),
        leak_max=res.leak_max,
    )


def branch_wigner(result: SchemeResult, which: str, grid: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of the ``'pd1'`` or ``'pd2'`` branch, whose stored state is unnormalised."""
    if which not in ("pd1", "pd2"):
        raise ValueError(f"unknown branch {which!r}")
    return wigner(result.pd2_branch if which == "pd2" else result.pd1_branch, grid)


def commutation_report(params: SchemeParams, alphas: list[float]) -> list[dict]:
    """One row per coherent amplitude: fidelities, failure rates, PD1 Wigner minimum."""
    rows = []
    for alpha in alphas:
        p = replace(params, input_kind="coherent", alpha=complex(alpha))
        res = run_interferometer(p)
        t = p.t
        predicted = math.exp(-((1.0 - t) ** 2) * abs(alpha) ** 2)
        _, wmin = min_wigner(branch_wigner(res, "pd1"))
        rows.append(
            {
                "alpha": float(alpha),
                "cutoff": res.cutoff,
                "fidelity_pd2_vs_input": res.fidelity_pd2_vs_input,
                "fidelity_pd2_vs_attenuated": res.fidelity_pd2_vs_attenuated,
                "predicted_fidelity": predicted,
                "p_bc_given_b": res.p_bc_given_b,
                "p_bc_given_c": res.p_bc_given_c,
                "pd1_min_wigner": wmin,
            }
        )
    return rows
