"""End-to-end heralded add/subtract interferometer on four modes (a, b, c, d).

Layout: the input rides on mode ``a``; BS1(a,b) and BS2(a,c) are weak taps of
equal intensity transmittivity T; a two-mode squeezer S(a,d) of coupling s sits
between them and PD0 heralds one idler photon on ``d`` (photon addition); the
two tap modes interfere on the 50:50 BS3 and are watched by PD1 (mode b) and
PD2 (mode c).

With the beam-splitter sign convention of :mod:`qocsim.elements`, BS3 is
applied to the ordered pair (c, b), which routes the difference combination of
the two add/subtract orderings — the identity operation, first order in r and
λ — to PD2, and the sum combination (1 + 2n̂) to PD1.  Swapping the BS3 pair
order exchanges the two detectors' roles; ``SchemeParams.swap_bs3_sign``
exposes that deliberately as a sign sanity check.

Detector models: PD0 is an ideal number-resolving "exactly one" herald by
default (``pd0_onoff`` switches it to an on-off click); PD1/PD2 are on-off
detectors with configurable efficiencies, matching avalanche photodiodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Cutoff, MixedState, PureState, State
from .dsl import (
    CircuitSpec,
    CutoffPolicy,
    ElementStmt,
    HeraldStmt,
    InputStmt,
    OutputStmt,
    compile_circuit,
)
from .elements import coherent_state, fock_state, thermal_state
from .engine import Ensemble, execute_plan
from . import measurement
from .measurement import DetectorModel, click
from .phasespace import (
    DEFAULT_GRID,
    GridSpec,
    WignerGrid,
    fidelity,
    min_wigner,
    uhlmann_fidelity,
    wigner,
)

__all__ = [
    "SchemeParams",
    "SchemeResult",
    "OracleBranches",
    "build_fig1_circuit",
    "run_interferometer",
    "analytic_branch_oracle",
    "commutation_report",
    "efficiency_degradation",
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
    cutoff: int | None = None  # None: adaptive policy
    leak_budget: float = 1e-6
    swap_bs3_sign: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.transmittivity < 1.0:
            raise ValueError("transmittivity must be in (0, 1)")
        if self.coupling <= 0.0:
            raise ValueError("coupling must be > 0")
        if not all(0.0 <= eta <= 1.0 for eta in (self.eta_pd0, self.eta_pd1, self.eta_pd2)):
            raise ValueError("detector efficiencies must be in [0, 1]")
        if self.input_kind not in ("coherent", "thermal", "fock"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")

    @property
    def t(self) -> float:
        return math.sqrt(self.transmittivity)

    @property
    def r(self) -> float:
        return math.sqrt(1.0 - self.transmittivity)

    @property
    def mu(self) -> float:
        return math.cosh(self.coupling)

    @property
    def lam(self) -> float:
        return math.tanh(self.coupling)

    def input_stmt(self) -> InputStmt:
        if self.input_kind == "coherent":
            a = complex(self.alpha)
            return InputStmt("a", "coherent", (a.real, a.imag))
        if self.input_kind == "thermal":
            return InputStmt("a", "thermal", (float(self.nbar),))
        return InputStmt("a", "fock", (float(self.fock_n),))

    def input_state(self, cutoff: Cutoff) -> State:
        if self.input_kind == "coherent":
            return coherent_state(self.alpha, cutoff, "a")
        if self.input_kind == "thermal":
            return thermal_state(self.nbar, cutoff, "a")
        return fock_state(self.fock_n, cutoff, "a")

    def policy(self) -> CutoffPolicy:
        return CutoffPolicy(explicit=self.cutoff, leak_budget=self.leak_budget)


def _pd0_herald(params: SchemeParams) -> HeraldStmt:
    if params.pd0_onoff:
        return HeraldStmt("d", "click", None, params.eta_pd0, True)
    return HeraldStmt("d", "exactly", 1, params.eta_pd0, False)


def build_fig1_circuit(params: SchemeParams, branch: str = "pd2") -> CircuitSpec:
    """Circuit for one accepted branch: 4 unitaries, 3 herald points.

    ``branch='pd2'`` keeps events with a click at PD2 (mode c) and none at PD1
    (mode b); ``branch='pd1'`` is the converse.  ``branch='none'`` stops after
    BS3 with only the PD0 herald: the part both branches share, which
    :func:`run_interferometer` executes once.
    """
    if branch not in ("pd2", "pd1", "none"):
        raise ValueError(f"unknown branch {branch!r}")
    bs3 = ("b", "c") if params.swap_bs3_sign else ("c", "b")
    operations: list = [
        ElementStmt("bs", ("a", "b"), params.transmittivity),
        ElementStmt("tmsq", ("a", "d"), params.coupling),
        _pd0_herald(params),
        ElementStmt("bs", ("a", "c"), params.transmittivity),
        ElementStmt("bs", bs3, 0.5),
    ]
    outputs = [OutputStmt("probs")]
    if branch == "pd2":
        operations.append(HeraldStmt("b", "noclick", None, params.eta_pd1, True))
        operations.append(HeraldStmt("c", "click", None, params.eta_pd2, True))
        outputs.append(OutputStmt("fidelity", "a"))
        outputs.append(OutputStmt("state", "a"))
    elif branch == "pd1":
        operations.append(HeraldStmt("c", "noclick", None, params.eta_pd2, True))
        operations.append(HeraldStmt("b", "click", None, params.eta_pd1, True))
        outputs.append(OutputStmt("fidelity", "a"))
        outputs.append(OutputStmt("state", "a"))
    inputs = (
        params.input_stmt(),
        InputStmt("b", "vacuum"),
        InputStmt("c", "vacuum"),
        InputStmt("d", "vacuum"),
    )
    return CircuitSpec(MODES, inputs, tuple(operations), tuple(outputs))


@dataclass
class SchemeResult:
    params: SchemeParams
    cutoff: int
    pd0_probability: float
    pd1_branch: MixedState  # unnormalized: trace = P(PD1-only | PD0)
    pd2_branch: MixedState
    pd1_weight: float  # conditional on the PD0 herald
    pd2_weight: float
    p_b: float  # click statistics of the PD0-heralded state after BS3
    p_c: float
    p_bc: float
    p_bc_given_b: float
    p_bc_given_c: float
    fidelity_pd2_vs_input: float | None
    fidelity_pd2_vs_attenuated: float | None
    fidelity_pd1_vs_input: float | None
    leak_max: float

    def normalized_branch(self, which: str) -> MixedState:
        rho = self.pd2_branch if which == "pd2" else self.pd1_branch
        return MixedState.create(rho.modes, rho.cutoff, rho.matrix / rho.trace_tag)


def _attenuated_reference(params: SchemeParams, cutoff: Cutoff) -> State:
    if params.input_kind == "coherent":
        return coherent_state(params.t * complex(params.alpha), cutoff, "a")
    if params.input_kind == "thermal":
        return thermal_state(params.transmittivity**2 * params.nbar, cutoff, "a")
    return fock_state(params.fock_n, cutoff, "a")


def _branch_fidelity(reference: State, rho: MixedState) -> float:
    rho_n = MixedState.create(rho.modes, rho.cutoff, rho.matrix / rho.trace_tag)
    if isinstance(reference, PureState):
        return fidelity(reference, rho_n)
    return uhlmann_fidelity(reference, rho_n)


def run_interferometer(params: SchemeParams) -> SchemeResult:
    """Exact staged simulation of both accepted branches plus click statistics.

    The ``none`` circuit runs once through the compiled-plan executor.  Both
    branches are its post-BS3 ensemble conditioned on the trailing heralds of
    the ``pd2`` and ``pd1`` circuits, inside the same cutoff retry and leak
    checks; the click statistics come from that ensemble too.  An adaptive
    cutoff is the larger of the two branch circuits' predictions, so a circuit
    file describing one branch runs at the same cutoff or below, and
    reproduces its numbers to rounding when run at this one.
    """
    prefix = build_fig1_circuit(params, "none")
    full = [build_fig1_circuit(params, branch) for branch in ("pd2", "pd1")]
    tails = [spec.operations[len(prefix.operations):] for spec in full]
    policy = params.policy()
    # the branch heralds run in the same execution, so they size its cutoff too
    d = max(policy.choose(spec)[0] for spec in full)
    plan = compile_circuit(prefix, replace(policy, explicit=d))
    res = execute_plan(replace(plan, may_double=policy.explicit is None), branches=tails)
    (ens_pd2, heralds_pd2), (ens_pd1, heralds_pd1) = res.branches

    cutoff = Cutoff(res.cutoff)
    pd0_prob = res.heralds[0].probability
    w_pd2 = float(np.prod([h.probability for h in heralds_pd2]))
    w_pd1 = float(np.prod([h.probability for h in heralds_pd1]))

    post = res.final_state
    w = post.weight
    # one pass over the post-BS3 ensemble serves all three click statistics
    pops = post.populations(("b", "c"))
    click_b, click_c = (
        measurement.povm_element(click, DetectorModel("on-off", eta), cutoff).matrix.diagonal().real
        for eta in (params.eta_pd1, params.eta_pd2)
    )
    p_b = float(click_b @ pops.sum(axis=1)) / w
    p_c = float(pops.sum(axis=0) @ click_c) / w
    p_bc = float(click_b @ pops @ click_c) / w

    rho_pd2 = _scaled_branch(ens_pd2, w_pd2)
    rho_pd1 = _scaled_branch(ens_pd1, w_pd1)

    input_ref = params.input_state(cutoff)
    atten_ref = _attenuated_reference(params, cutoff)
    f_pd2_in = _branch_fidelity(input_ref, rho_pd2)
    f_pd2_at = _branch_fidelity(atten_ref, rho_pd2)
    f_pd1_in = _branch_fidelity(input_ref, rho_pd1)

    return SchemeResult(
        params=params,
        cutoff=res.cutoff,
        pd0_probability=pd0_prob,
        pd1_branch=rho_pd1,
        pd2_branch=rho_pd2,
        pd1_weight=w_pd1,
        pd2_weight=w_pd2,
        p_b=p_b,
        p_c=p_c,
        p_bc=p_bc,
        p_bc_given_b=p_bc / p_b if p_b > 0 else float("nan"),
        p_bc_given_c=p_bc / p_c if p_c > 0 else float("nan"),
        fidelity_pd2_vs_input=f_pd2_in,
        fidelity_pd2_vs_attenuated=f_pd2_at,
        fidelity_pd1_vs_input=f_pd1_in,
        leak_max=res.leak_max,
    )


def _scaled_branch(branch: Ensemble, weight: float) -> MixedState:
    """The branch's state on mode a, rescaled to trace ``weight``."""
    rho = branch.reduced("a")
    return MixedState.create(rho.modes, rho.cutoff, rho.matrix / rho.trace_tag * weight)


@dataclass(frozen=True)
class OracleBranches:
    """First-order closed-form branch states, scaled by λr/√2 each.

    ``pd2`` is the input itself (the two orderings interfere to the identity);
    ``pd1`` applies 1 + 2n̂ (their sum).
    """

    pd2: PureState
    pd1: PureState


def analytic_branch_oracle(input_state: PureState, params: SchemeParams) -> OracleBranches:
    if len(input_state.modes) != 1:
        raise ValueError("oracle expects a single-mode pure input")
    scale = params.lam * params.r / math.sqrt(2.0)
    d = input_state.cutoff.d
    n = np.arange(d)
    pd2 = scale * input_state.amps
    pd1 = scale * (1.0 + 2.0 * n) * input_state.amps
    return OracleBranches(
        pd2=PureState.create(input_state.modes, input_state.cutoff, pd2),
        pd1=PureState.create(input_state.modes, input_state.cutoff, pd1),
    )


def branch_wigner(result: SchemeResult, which: str, grid: GridSpec = DEFAULT_GRID) -> WignerGrid:
    return wigner(result.normalized_branch(which), grid)


def commutation_report(
    params: SchemeParams,
    alphas: list[float],
    wigner_grid: GridSpec = DEFAULT_GRID,
) -> list[dict]:
    """One row per coherent amplitude: fidelities, failure rates, PD1 Wigner minimum."""
    rows = []
    for alpha in alphas:
        p = replace(params, input_kind="coherent", alpha=complex(alpha))
        res = run_interferometer(p)
        t = p.t
        predicted = math.exp(-((1.0 - t) ** 2) * abs(alpha) ** 2)
        _, wmin = min_wigner(branch_wigner(res, "pd1", wigner_grid))
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


@dataclass(frozen=True)
class DegradationResult:
    eta: float
    fidelity_ideal: float
    fidelity_degraded: float

    @property
    def delta(self) -> float:
        return self.fidelity_ideal - self.fidelity_degraded


def efficiency_degradation(params: SchemeParams, eta: float) -> DegradationResult:
    """PD2-branch fidelity loss (vs the input) from inefficient PD1/PD2."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    ideal = run_interferometer(replace(params, eta_pd1=1.0, eta_pd2=1.0))
    lossy = run_interferometer(
        replace(params, eta_pd1=eta, eta_pd2=eta, cutoff=ideal.cutoff)
    )
    return DegradationResult(
        eta=eta,
        fidelity_ideal=ideal.fidelity_pd2_vs_input,
        fidelity_degraded=lossy.fidelity_pd2_vs_input,
    )
