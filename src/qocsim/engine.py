"""Plan executors: a staged ensemble evaluator and a brute-force reference.

The staged executor attaches modes lazily, traces every heralded mode
immediately, and represents (possibly mixed) states as one weighted ensemble
of pure vectors, ρ = Σₖ |vₖ⟩⟨vₖ|, held as the columns of a single ``(dim, K)``
array.  All detector POVM elements are diagonal in the Fock basis, so
conditioning maps ensembles to ensembles; the member count K is compacted back
to the live-space rank via an eigendecomposition whenever it grows past it.
This keeps the Fig.-1-style pipelines at d ≈ 30 with thermal inputs in ≈ d²
live dimensions.  The final state is returned as that ensemble.

The cutoff is the plan's: explicit, or predicted from the leak budget by
:class:`~qocsim.dsl.CutoffPolicy`.  The leak monitor checks every live mode's
top-level population after every stage, and a predicted cutoff that still
leaks is retried once at twice its value.

Element unitaries are cached and applied as their photon-number sectors: the
beam splitter conserves n1 + n2 and the squeezer n1 − n2, so each d²×d²
unitary is kept only as its ``2d − 1`` diagonal blocks, and applying it costs
one small matrix product per block instead of a d⁴-entry contraction.

The brute-force executor builds the full joint space up front, applies
embedded conditioning operators without any tracing, and reduces only at the
end.  It builds every element as one dense matrix, uncached, from the same
public builders, so it shares no sector split with the staged executor.  It
exists as an independent oracle: both executors must agree to 1e-10 on small
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import measurement
from .core import (
    Cutoff,
    MixedState,
    OperatorMatrix,
    PureState,
    State,
    apply,
    apply_matrix,
    partial_trace,
    tensor,
)
from .dsl import ElementStmt, ExecutionPlan, HeraldStmt, InputStmt, OutputStmt
from .elements import (
    BeamSplitterParams,
    SqueezerParams,
    beam_splitter_unitary,
    coherent_state,
    fock_state,
    thermal_state,
    two_mode_squeezer_unitary,
    vacuum,
)
from .measurement import DetectorModel, Requirement, ZeroProbabilityError
from .phasespace import GridSpec, fidelity, uhlmann_fidelity, wigner

__all__ = [
    "LeakBudgetError",
    "HeraldRecord",
    "ExecutionResult",
    "Ensemble",
    "execute_plan",
    "execute_plan_brute",
    "detector_for",
    "requirement_for",
]


class LeakBudgetError(RuntimeError):
    """Top-level population exceeded the leak budget; rerun with a larger cutoff."""

    def __init__(self, stage: str, mode: str, leak: float, budget: float, cutoff: int):
        self.stage = stage
        self.mode = mode
        self.leak = leak
        self.budget = budget
        self.cutoff = cutoff
        super().__init__(
            f"truncation leak {leak:.3e} on mode {mode!r} after {stage} exceeds "
            f"budget {budget:.3e} at cutoff d={cutoff}; increase the cutoff"
        )


@dataclass
class Ensemble:
    """Weighted pure-vector ensemble over the live modes (little-endian digits).

    ``members`` has shape ``(dim, K)``: column k is the unnormalized vector vₖ.
    """

    modes: tuple[str, ...]
    cutoff: Cutoff
    members: np.ndarray

    @property
    def weight(self) -> float:
        return float(np.vdot(self.members, self.members).real)

    @property
    def dim(self) -> int:
        return self.cutoff.d ** len(self.modes)

    def _populations(self) -> np.ndarray:
        """Diagonal of ρ in the joint Fock basis."""
        m = self.members
        return np.sum(m.real**2 + m.imag**2, axis=1)

    def populations(self, modes: Sequence[str]) -> np.ndarray:
        """Unnormalized photon-number distribution of ``modes``, one axis each in that order."""
        M = len(self.modes)
        t = self._populations().reshape((self.cutoff.d,) * M)
        return np.einsum(t, list(range(M)), [M - 1 - self.modes.index(m) for m in modes])

    def _mode_first(self, mode: str) -> np.ndarray:
        """Members as ``(d, rest·K)``, with ``mode`` as the leading digit."""
        d = self.cutoff.d
        M = len(self.modes)
        ax = M - 1 - self.modes.index(mode)
        t = self.members.reshape((d,) * M + (self.members.shape[1],))
        return np.moveaxis(t, ax, 0).reshape(d, -1)

    def to_mixed(self) -> MixedState:
        m = self.members
        return MixedState.create(self.modes, self.cutoff, m @ m.conj().T)

    def pattern_probability(self, pattern, detectors) -> float:
        """Tr[ρ ⊗ Eᵢ] over the ensemble without densifying it."""
        joint = measurement.joint_diagonal(self.modes, self.cutoff, pattern.requirements, detectors)
        return float(joint @ self._populations())

    def reduced(self, mode: str) -> MixedState:
        t = self._mode_first(mode)
        return MixedState.create((mode,), self.cutoff, t @ t.conj().T)

    def top_level_population(self) -> dict[str, float]:
        """Population of each mode's top level (a 1/d slice), relative to the weight."""
        d = self.cutoff.d
        M = len(self.modes)
        total = self.weight
        t = self.members.reshape((d,) * M + (self.members.shape[1],))
        out = {}
        for m in self.modes:
            top = np.take(t, d - 1, axis=M - 1 - self.modes.index(m))
            out[m] = float(np.vdot(top, top).real) / total if total > 0 else 0.0
        return out

    def condition(self, mode: str, diag: np.ndarray) -> Ensemble:
        """Apply the diagonal POVM element ``diag`` on ``mode`` and trace it out.

        Each member v yields the members √Eₙ ⟨n|v⟩ over the support of E; the
        carried weight drops to Tr[E ρ].  All-zero members are dropped.
        """
        t = self._mode_first(mode)
        support = np.nonzero(diag > 0.0)[0]
        rest = t.shape[1] // self.members.shape[1]
        # (n, rest, k) -> (rest, k, n): member order is k-major, n-minor
        branches = (np.sqrt(diag[support])[:, None] * t[support]).reshape(
            support.size, rest, -1
        )
        branches = branches.transpose(1, 2, 0).reshape(rest, -1)
        branches = branches[:, np.any(branches, axis=0)]
        remaining = tuple(m for m in self.modes if m != mode)
        return Ensemble(remaining, self.cutoff, branches)

    def compact(self) -> None:
        """Re-express as an eigen-ensemble when the member count exceeds the rank."""
        if self.members.shape[1] <= self.dim:
            return
        m = self.members
        evals, evecs = np.linalg.eigh(m @ m.conj().T)
        keep = evals > max(evals[-1], 0.0) * 1e-16
        self.members = evecs[:, keep] * np.sqrt(evals[keep])


def detector_for(stmt: HeraldStmt) -> DetectorModel:
    return DetectorModel("on-off" if stmt.onoff else "number-resolving", stmt.eta)


def requirement_for(stmt: HeraldStmt) -> Requirement:
    if stmt.requirement == "exactly":
        return measurement.exactly(stmt.count)
    return Requirement(stmt.requirement)


@dataclass(frozen=True)
class HeraldRecord:
    mode: str
    requirement: str
    probability: float  # conditional on all earlier heralds


@dataclass
class ExecutionResult:
    plan: ExecutionPlan
    cutoff: int
    final_state: Ensemble | State | None  # staged: Ensemble; brute oracle: State
    final_modes: tuple[str, ...]
    heralds: list[HeraldRecord]
    joint_probability: float
    leak_max: float
    outputs: dict[int, object] = field(default_factory=dict)
    # one (ensemble, heralds) pair per requested branch; see execute_plan
    branches: list[tuple[Ensemble, list[HeraldRecord]]] = field(default_factory=list)

    def output_value(self, kind: str, mode: str | None = None):
        for i, out in enumerate(self.plan.spec.outputs):
            if out.kind == kind and (mode is None or out.mode == mode):
                return self.outputs[i]
        raise KeyError(f"no {kind!r} output for mode {mode!r}")


def _input_state(stmt: InputStmt, cutoff: Cutoff) -> State:
    if stmt.kind == "coherent":
        return coherent_state(complex(stmt.params[0], stmt.params[1]), cutoff, stmt.mode)
    if stmt.kind == "thermal":
        return thermal_state(stmt.params[0], cutoff, stmt.mode)
    if stmt.kind == "fock":
        return fock_state(int(stmt.params[0]), cutoff, stmt.mode)
    return vacuum(cutoff, stmt.mode)


def _input_members(stmt: InputStmt, cutoff: Cutoff) -> np.ndarray:
    state = _input_state(stmt, cutoff)
    if isinstance(state, PureState):
        return state.amps.reshape(-1, 1).astype(np.complex128)
    pops = np.real(np.diag(state.matrix))
    support = pops > 0.0
    return np.diag(np.sqrt(np.where(support, pops, 0.0))).astype(np.complex128)[:, support]


def _element_key(stmt: ElementStmt, cutoff: Cutoff) -> tuple[str, float, int]:
    if stmt.modes[0] == stmt.modes[1]:
        raise ValueError(f"{stmt.kind} modes must differ, got {stmt.modes}")
    return stmt.kind, stmt.value, cutoff.d


def _unitary_matrix(kind: str, value: float, d: int) -> np.ndarray:
    """The element's dense d²×d² unitary from the public builders, uncached."""
    cutoff = Cutoff(d)
    if kind == "bs":
        return beam_splitter_unitary(BeamSplitterParams(value), cutoff).matrix
    return two_mode_squeezer_unitary(SqueezerParams(value), cutoff).matrix


# The sectors do not depend on the modes the element acts on, so they are not
# part of the key.  One Fig.-1 run needs at most 3 (kind, value) pairs at 2
# cutoffs.
@lru_cache(maxsize=16)
def _unitary_matrix_cached(
    kind: str, value: float, d: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The element unitary as its photon-number sectors ``(idx, block)``.

    The beam splitter conserves n1 + n2 and the squeezer n1 − n2 (pair index
    n1 + d·n2), so the built matrix is zero between sectors and only the
    blocks are kept: O(d³) entries instead of d⁴.
    """
    u = _unitary_matrix(kind, value, d)
    pair = np.arange(d * d)
    n1, n2 = pair % d, pair // d
    label = n1 + n2 if kind == "bs" else n1 - n2
    sectors = []
    for conserved in np.unique(label):
        idx = np.flatnonzero(label == conserved)
        block = u[np.ix_(idx, idx)]
        idx.setflags(write=False)
        block.setflags(write=False)
        sectors.append((idx, block))
    return tuple(sectors)


class _LeakMonitor:
    def __init__(self, budget: float, cutoff: int):
        self.budget = budget
        self.cutoff = cutoff
        self.max_seen = 0.0

    def check(self, stage: str, populations: dict[str, float]) -> None:
        for mode, leak in populations.items():
            self.max_seen = max(self.max_seen, leak)
            if leak > self.budget:
                raise LeakBudgetError(stage, mode, leak, self.budget, self.cutoff)


def _evaluate_output(
    stmt: OutputStmt,
    reduced: dict[str, MixedState],
    inputs: dict[str, InputStmt],
    cutoff: Cutoff,
    heralds: list[HeraldRecord],
    joint_probability: float,
):
    if stmt.kind == "probs":
        return {
            "herald_probabilities": [
                {"mode": h.mode, "requirement": h.requirement, "probability": h.probability}
                for h in heralds
            ],
            "joint_probability": joint_probability,
        }
    rho = reduced[stmt.mode]
    rho_n = MixedState.create(rho.modes, cutoff, rho.matrix / rho.trace_tag)
    if stmt.kind == "state":
        return rho_n
    if stmt.kind == "wigner":
        lo, hi, cnt = stmt.grid
        return wigner(rho_n, GridSpec.square(lo, hi, cnt))
    # fidelity vs. the mode's own input
    ref = _input_state(inputs[stmt.mode], cutoff)
    if isinstance(ref, PureState):
        return fidelity(ref, rho_n)
    return uhlmann_fidelity(ref, rho_n)


def execute_plan(
    plan: ExecutionPlan, *, branches: Sequence[Sequence[HeraldStmt]] = ()
) -> ExecutionResult:
    """Run the staged ensemble executor at the plan's cutoff.

    An adaptive cutoff (``plan.may_double``) is the policy's prediction of the
    smallest d that meets the leak budget; if the prediction falls short, the
    run is retried once at twice that cutoff.  An explicit cutoff is never
    retried: its leak failure is raised.

    Each entry of ``branches`` is a herald sequence applied, like the plan's own
    condition steps, to the plan's final ensemble.  Branches run at the same
    cutoff and under the same leak checks, so a leak in a branch also triggers
    the retry.  The results are in ``ExecutionResult.branches``, with herald
    probabilities conditional on the final ensemble.
    """
    try:
        return _execute_staged(plan, plan.cutoff, branches)
    except LeakBudgetError:
        if not plan.may_double:
            raise
        return _execute_staged(plan, 2 * plan.cutoff, branches)


def _herald(
    ens: Ensemble, stmt: HeraldStmt, monitor: _LeakMonitor
) -> tuple[Ensemble, HeraldRecord]:
    """One condition step: condition and trace, compact, then check the leak."""
    element = measurement.povm_element(requirement_for(stmt), detector_for(stmt), ens.cutoff)
    before = ens.weight
    ens = ens.condition(stmt.mode, np.real(np.diag(element.matrix)))
    after = ens.weight
    if after <= 0.0:
        raise ZeroProbabilityError(
            f"herald {stmt.requirement} on mode {stmt.mode!r} has zero probability"
        )
    ens.compact()
    if ens.modes:
        monitor.check(f"herald {stmt.mode}", ens.top_level_population())
    return ens, HeraldRecord(stmt.mode, stmt.requirement, after / before)


def _execute_staged(
    plan: ExecutionPlan, d: int, branches: Sequence[Sequence[HeraldStmt]]
) -> ExecutionResult:
    cutoff = Cutoff(d)
    inputs = {inp.mode: inp for inp in plan.spec.inputs}
    ens: Ensemble | None = None
    monitor = _LeakMonitor(plan.leak_budget, d)
    heralds: list[HeraldRecord] = []
    joint = 1.0
    reduced_cache: dict[str, MixedState] = {}
    outputs: dict[int, object] = {}
    out_index = 0

    for step in plan.steps:
        if step.op == "prepare":
            new = _input_members(step.payload, cutoff)
            if ens is None:
                ens = Ensemble((step.mode,), cutoff, new)
            elif step.payload.kind == "vacuum":
                # the new mode is the slowest digit, so |v⟩⊗|0⟩ is v zero-padded
                members = np.zeros((cutoff.d * ens.dim, ens.members.shape[1]), np.complex128)
                members[: ens.dim] = ens.members
                ens = Ensemble(ens.modes + (step.mode,), cutoff, members)
            else:
                # joint index = old + dim_old * new_level (new mode is slower);
                # member index = k_old * K_new + k_new
                members = np.einsum("nj,oi->noij", new, ens.members)
                ens = Ensemble(ens.modes + (step.mode,), cutoff,
                               members.reshape(cutoff.d * ens.dim, -1))
                ens.compact()
            monitor.check(f"prepare {step.mode}", ens.top_level_population())
        elif step.op == "unitary":
            sectors = _unitary_matrix_cached(*_element_key(step.payload, cutoff))
            ens.members = apply_matrix(ens.members, ens.modes, cutoff, sectors, step.payload.modes)
            monitor.check(f"{step.payload.kind} {'/'.join(step.payload.modes)}",
                          ens.top_level_population())
        elif step.op == "condition":
            ens, record = _herald(ens, step.payload, monitor)
            heralds.append(record)
            joint *= record.probability
        elif step.op == "output":
            stmt = step.payload
            if stmt.mode is not None and stmt.mode not in reduced_cache:
                reduced_cache[stmt.mode] = ens.reduced(stmt.mode)
            outputs[out_index] = _evaluate_output(
                stmt, reduced_cache, inputs, cutoff, heralds, joint
            )
            out_index += 1

    results = []
    for stmts in branches:
        branch, records = ens, []
        for stmt in stmts:
            branch, record = _herald(branch, stmt, monitor)
            records.append(record)
        results.append((branch, records))

    return ExecutionResult(
        plan=plan,
        cutoff=d,
        final_state=ens if ens is not None and ens.modes else None,
        final_modes=ens.modes if ens is not None else (),
        heralds=heralds,
        joint_probability=joint,
        leak_max=monitor.max_seen,
        outputs=outputs,
        branches=results,
    )


def execute_plan_brute(plan: ExecutionPlan) -> ExecutionResult:
    """Full-joint-space reference evaluator: no staging, traces only at the end."""
    d = plan.cutoff
    cutoff = Cutoff(d)
    inputs = {inp.mode: inp for inp in plan.spec.inputs}

    prepared = [s.payload for s in plan.steps if s.op == "prepare"]
    state: State | None = None
    for stmt in prepared:
        nxt = _input_state(stmt, cutoff)
        state = nxt if state is None else tensor(state, nxt)

    heralds: list[HeraldRecord] = []
    joint = 1.0
    measured: list[str] = []
    outputs: dict[int, object] = {}
    out_index = 0
    reduced_cache: dict[str, MixedState] = {}

    def weight(s: State) -> float:
        return s.norm_tag if isinstance(s, PureState) else s.trace_tag

    for step in plan.steps:
        if step.op == "unitary":
            mat = _unitary_matrix(*_element_key(step.payload, cutoff))
            state = apply(OperatorMatrix.create(mat, step.payload.modes, cutoff), state)
        elif step.op == "condition":
            stmt = step.payload
            det = detector_for(stmt)
            req = requirement_for(stmt)
            element = measurement.povm_element(req, det, cutoff)
            root = np.diag(np.sqrt(np.real(np.diag(element.matrix))))
            before = weight(state)
            state = apply(OperatorMatrix.create(root, (stmt.mode,), cutoff), state)
            after = weight(state)
            if after <= 0.0:
                raise ZeroProbabilityError(
                    f"herald {stmt.requirement} on mode {stmt.mode!r} has zero probability"
                )
            prob = after / before
            heralds.append(HeraldRecord(stmt.mode, stmt.requirement, prob))
            joint *= prob
            measured.append(stmt.mode)

    keep = tuple(m for m in state.modes if m not in measured)
    if not keep:
        final = None
    elif measured:
        final = partial_trace(state, keep)
    else:
        final = state

    for step in plan.steps:
        if step.op != "output":
            continue
        stmt = step.payload
        if stmt.mode is not None and stmt.mode not in reduced_cache:
            reduced_cache[stmt.mode] = partial_trace(final, (stmt.mode,))
        outputs[out_index] = _evaluate_output(
            stmt, reduced_cache, inputs, cutoff, heralds, joint
        )
        out_index += 1

    return ExecutionResult(
        plan=plan,
        cutoff=d,
        final_state=final,
        final_modes=keep,
        heralds=heralds,
        joint_probability=joint,
        leak_max=float("nan"),
        outputs=outputs,
    )
