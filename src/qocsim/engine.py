"""Plan executors: a staged ensemble evaluator and a brute-force reference.

Both walk the plan's spec, its operations and then its outputs, in file
order.  The staged executor attaches each mode's input right before the first
statement that uses it, traces every heralded mode immediately, and
represents (possibly mixed) states as one weighted ensemble of pure vectors
vₖ, held as the columns of a single ``(dim, K)`` array.  Every
mode keeps its own number of levels, the plan's per-mode cutoff, and ``dim``
is their product: in Fig. 1 only the input mode needs the large cutoff (d ≈ 30
for a thermal input), while the tap modes and the idler keep 5–10 levels, so
the live space is d·d_b·d_c rather than d³.  Every herald is a detector
outcome diagonal in the Fock basis, taken as its diagonal E from
:func:`~qocsim.measurement.povm_diagonal`, so conditioning maps ensembles to
ensembles (each member v splits into the members √Eₙ⟨n|v⟩); the
member count K is compacted back to the live-space rank via an
eigendecomposition whenever it grows past it.  The final state is returned as
that ensemble.  The plan's branches, herald sequences that fork from the
final state, are run on it one after another, each from the same ensemble.

Without the plan's charge signs (``ExecutionPlan.charge_signs``) the state is
ρ = Σₖ |vₖ⟩⟨vₖ| and a thermal input enters as its d Fock members √pₙ|n⟩.  With
them every element conserves Q = Σ sₘ Nₘ and every herald is diagonal, so Fock
members of distinct charge keep disjoint supports and share one vector: a
thermal input is the single column √pₙ, and the product members of a further
Fock-diagonal input are packed so that no vector holds two of equal charge.
Weights, populations, leak checks and heralds see no cross terms; the state is
ρ = D(Σₖ |vₖ⟩⟨vₖ|), D the dephasing that drops every element between distinct
charges, and every density matrix the ensemble hands out is dephased so (on
one mode, whose levels all differ in charge, D keeps the diagonal).

The cutoffs are the plan's: explicit (the same for every mode), or predicted
per mode from the leak budget by :func:`~qocsim.dsl.compile_circuit`, which
sizes the branch stages as well; the executor only runs the plan.  The leak
monitor checks every live mode's top-level population after every stage, the
branches' included (a NaN population fails it too), and predicted cutoffs that
still leak are retried once, every mode at twice its value.

Element unitaries are applied as their photon-number sectors: the beam
splitter conserves n1 + n2 and the squeezer n1 − n2, so the unitary on a
d1×d2 pair space is kept only as its ``d1 + d2 − 1`` diagonal blocks, packed
into ``max(d1, d2)`` slots of ``min(d1, d2)`` states, built from an
eigenbasis cached per truncation shape and cached by value as one
``(idx, blocks)`` pair (see :func:`~qocsim.elements.element_sectors`), and
applying it costs one stacked matrix product instead of a (d1·d2)²-entry
contraction.  Every BLAS call of a run goes through numpy's one OpenBLAS
thread pool; no second BLAS library competes with it for the cores.

The brute-force executor runs every mode at one uniform cutoff (the plan's
largest), builds the full joint space of every declared input up front,
applies every herald as the dense matrix √E on its mode without any tracing,
and reduces only at the end.  It builds every element as one dense ndarray
through the public builders, which scatter the same cached read-only sectors
onto it, and applies it with :func:`~qocsim.core.apply` as one dense
product.  It exists as an independent oracle: both executors must agree to
1e-10 on small circuits at uniform cutoffs.  Both read a herald's E from
:func:`~qocsim.measurement.povm_diagonal`, given the herald's own fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import measurement
from .core import (
    Cutoff,
    MixedState,
    PureState,
    State,
    apply,
    apply_matrix,
    partial_trace,
    tensor,
)
from .dsl import CircuitSpec, ElementStmt, ExecutionPlan, HeraldStmt, InputStmt
from .elements import (
    beam_splitter_unitary,
    coherent_state,
    element_sectors,
    fock_state,
    thermal_state,
    two_mode_squeezer_unitary,
    vacuum,
)
from .measurement import ZeroProbabilityError
from .phasespace import GridSpec, fidelity, wigner

__all__ = [
    "LeakBudgetError",
    "HeraldRecord",
    "ExecutionResult",
    "Ensemble",
    "execute_plan",
    "execute_plan_brute",
    "input_state",
]


class LeakBudgetError(RuntimeError):
    """Top-level population exceeded the leak budget; rerun with a larger cutoff.

    ``cutoffs`` holds every mode's cutoff and ``cutoff`` the largest of them.
    """

    def __init__(self, stage: str, mode: str, leak: float, budget: float,
                 cutoffs: dict[str, int]):
        self.stage = stage
        self.mode = mode
        self.leak = leak
        self.budget = budget
        self.cutoffs = cutoffs
        self.cutoff = max(cutoffs.values())
        super().__init__(
            f"truncation leak {leak:.3e} on mode {mode!r} after {stage} exceeds "
            f"budget {budget:.3e} at cutoff d={cutoffs[mode]}; increase the cutoff"
        )


@dataclass
class Ensemble:
    """Weighted pure-vector ensemble over the live modes (little-endian digits).

    ``dims[i]`` is the number of levels kept on ``modes[i]``.  ``members`` has
    shape ``(dim, K)`` with ``dim = prod(dims)``: column k is the unnormalized
    vector vₖ.  Without ``signs`` the state is ρ = Σₖ |vₖ⟩⟨vₖ|.  With them (the
    plan's charge sign per mode), a column may hold parts of distinct charge
    Q = Σ sₘ nₘ, and the state is Σₖ |vₖ⟩⟨vₖ| with every element between
    distinct charges dropped, as :meth:`reduced` returns it.
    """

    modes: tuple[str, ...]
    dims: tuple[int, ...]
    members: np.ndarray
    signs: dict[str, int] | None = None

    @property
    def weight(self) -> float:
        return float(np.vdot(self.members, self.members).real)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def _tensor(self) -> np.ndarray:
        """Members with one axis per mode (the last mode first) and K last."""
        return self.members.reshape(self.dims[::-1] + (self.members.shape[1],))

    def populations(self, modes: Sequence[str]) -> np.ndarray:
        """Unnormalized photon-number distribution of ``modes``, one axis each in that order."""
        M = len(self.modes)
        v = self.members
        t = np.sum(v.real**2 + v.imag**2, axis=1).reshape(self.dims[::-1])
        return np.einsum(t, list(range(M)), [M - 1 - self.modes.index(m) for m in modes])

    def _mode_first(self, mode: str) -> np.ndarray:
        """Members as ``(d, rest·K)``, with ``mode`` (kept at d levels) as the leading digit."""
        i = self.modes.index(mode)
        ax = len(self.modes) - 1 - i
        return np.moveaxis(self._tensor(), ax, 0).reshape(self.dims[i], -1)

    def _charges(self) -> np.ndarray:
        """Q = Σ sᵢ nᵢ of every joint basis state (needs ``signs``)."""
        q = np.zeros(1, dtype=np.int64)
        for m, d in zip(self.modes, self.dims):  # later modes are slower digits
            q = (self.signs[m] * np.arange(d)[:, None] + q).ravel()
        return q

    def reduced(self, mode: str) -> MixedState:
        """The unnormalized state of ``mode``, every other mode traced out."""
        if self.signs is not None:  # its levels differ in charge: only the diagonal
            pops = self.populations((mode,))
            return MixedState.create((mode,), Cutoff(pops.size), np.diag(pops))
        t = self._mode_first(mode)
        return MixedState.create((mode,), Cutoff(t.shape[0]), t @ t.conj().T)

    def top_level_population(self) -> dict[str, float]:
        """Population of each mode's top level, relative to the weight."""
        M = len(self.modes)
        total = self.weight
        t = self._tensor()
        out = {}
        for i, (m, d) in enumerate(zip(self.modes, self.dims)):
            top = np.take(t, d - 1, axis=M - 1 - i)
            out[m] = float(np.vdot(top, top).real) / total if total != 0.0 else 0.0
        return out

    def condition(self, mode: str, diag: np.ndarray) -> Ensemble:
        """Apply the diagonal POVM element ``diag`` on ``mode`` and trace it out.

        Each member v yields the members √Eₙ ⟨n|v⟩ over the support of E; the
        carried weight drops to Tr[E ρ].  All-zero members are dropped.
        """
        t = self._mode_first(mode)
        support = np.nonzero(diag > 0.0)[0]
        k = self.members.shape[1]
        rest = t.shape[1] // k
        # (n, rest, k) -> (rest, k, n): member order is k-major, n-minor; sizes
        # are explicit, so an all-zero E leaves no member and zero weight
        branches = (np.sqrt(diag[support])[:, None] * t[support]).reshape(support.size, rest, k)
        branches = branches.transpose(1, 2, 0).reshape(rest, k * support.size)
        branches = branches[:, np.any(branches, axis=0)]
        i = self.modes.index(mode)
        return Ensemble(self.modes[:i] + self.modes[i + 1:], self.dims[:i] + self.dims[i + 1:],
                        branches, self.signs)

    def compact(self) -> None:
        """Re-express as an eigen-ensemble when the member count exceeds the rank."""
        if self.members.shape[1] <= self.dim:
            return
        m = self.members
        evals, evecs = np.linalg.eigh(m @ m.conj().T)
        keep = evals > max(evals[-1], 0.0) * 1e-16
        self.members = evecs[:, keep] * np.sqrt(evals[keep])


@dataclass(frozen=True)
class HeraldRecord:
    mode: str
    requirement: str
    probability: float  # conditional on all earlier heralds


@dataclass
class ExecutionResult:
    plan: ExecutionPlan
    cutoffs: dict[str, int]  # the cutoffs the run settled at, per mode
    # staged: Ensemble (its reduced dephases by charge); brute oracle: State
    final_state: Ensemble | State | None
    heralds: list[HeraldRecord]
    leak_max: float
    outputs: tuple = ()  # one value per entry of plan.spec.outputs, in order
    # one (ensemble, heralds) pair per plan branch; see execute_plan
    branches: list[tuple[Ensemble, list[HeraldRecord]]] = field(default_factory=list)

    @property
    def cutoff(self) -> int:
        """The largest mode cutoff: the one number reports show."""
        return max(self.cutoffs.values())

    @property
    def joint_probability(self) -> float:
        """The product of the herald probabilities: the probability of the whole record."""
        return math.prod((h.probability for h in self.heralds), start=1.0)


def input_state(stmt: InputStmt, cutoff: Cutoff) -> State:
    """The state an input statement declares, at ``cutoff`` levels."""
    if stmt.kind == "coherent":
        return coherent_state(complex(stmt.params[0], stmt.params[1]), cutoff, stmt.mode)
    if stmt.kind == "thermal":
        return thermal_state(stmt.params[0], cutoff, stmt.mode)
    if stmt.kind == "fock":
        return fock_state(int(stmt.params[0]), cutoff, stmt.mode)
    return vacuum(cutoff, stmt.mode)


def _input_members(stmt: InputStmt, cutoff: Cutoff) -> np.ndarray:
    state = input_state(stmt, cutoff)
    if isinstance(state, PureState):
        return state.amps.reshape(-1, 1).astype(np.complex128)
    pops = np.real(np.diag(state.matrix))
    support = pops > 0.0
    return np.diag(np.sqrt(np.where(support, pops, 0.0))).astype(np.complex128)[:, support]


def _pack_by_charge(members: np.ndarray, charges: np.ndarray) -> np.ndarray:
    """The same state in the fewest columns, none holding two parts of equal charge.

    The part of column k on the rows of charge Q moves to column r, r the
    number of earlier columns with a nonzero part of charge Q, so K becomes
    the largest number of columns that share a charge.  Entries are moved,
    never added.
    """
    q = charges - charges.min()
    rows, cols = np.nonzero(members)
    present = np.zeros((int(q.max()) + 1, members.shape[1]), dtype=bool)
    present[q[rows], cols] = True
    rank = np.cumsum(present, axis=1) - 1
    out = np.zeros((members.shape[0], int(rank[:, -1].max()) + 1), dtype=np.complex128)
    out[rows, rank[q[rows], cols]] = members[rows, cols]
    return out


def _check_modes(stmt: ElementStmt) -> None:
    if stmt.modes[0] == stmt.modes[1]:
        raise ValueError(f"{stmt.kind} modes must differ, got {stmt.modes}")


class _LeakMonitor:
    def __init__(self, budget: float, cutoffs: dict[str, int]):
        self.budget = budget
        self.cutoffs = cutoffs
        self.max_seen = 0.0

    def check(self, stage: str, populations: dict[str, float]) -> None:
        for mode, leak in populations.items():
            self.max_seen = max(self.max_seen, leak)
            if not leak <= self.budget:  # a NaN leak fails too
                raise LeakBudgetError(stage, mode, leak, self.budget, self.cutoffs)


def _evaluate_outputs(spec: CircuitSpec, state_of: Callable[[str], MixedState],
                      heralds: list[HeraldRecord]) -> tuple:
    """Every output of ``spec``, in order; ``state_of(mode)`` is the mode's unnormalized state."""
    inputs = {inp.mode: inp for inp in spec.inputs}
    normalized = {}
    for mode in dict.fromkeys(out.mode for out in spec.outputs if out.mode is not None):
        rho = state_of(mode)
        normalized[mode] = MixedState.create(rho.modes, rho.cutoff, rho.matrix / rho.trace_tag)
    values = []
    for stmt in spec.outputs:
        rho_n = normalized.get(stmt.mode)
        if stmt.kind == "probs":
            values.append({
                "herald_probabilities": [
                    {"mode": h.mode, "requirement": h.requirement, "probability": h.probability}
                    for h in heralds
                ],
                "joint_probability": math.prod((h.probability for h in heralds), start=1.0),
            })
        elif stmt.kind == "state":
            values.append(rho_n)
        elif stmt.kind == "wigner":
            values.append(wigner(rho_n, GridSpec.square(*stmt.grid)))
        else:  # fidelity vs. the mode's own input
            values.append(fidelity(input_state(inputs[stmt.mode], rho_n.cutoff), rho_n))
    return tuple(values)


def execute_plan(plan: ExecutionPlan) -> ExecutionResult:
    """Run the staged ensemble executor at the plan's per-mode cutoffs.

    The executor walks ``plan.spec`` directly.  It attaches each mode's input
    right before the first statement that uses it (an element, a herald, or an
    output), so a declared mode that nothing uses is never attached, and every
    herald traces its mode out, so the live space stays small.  The modes an
    output asks for are attached after the last operation, before any output
    is evaluated.

    Adaptive cutoffs (``plan.may_double``) are the policy's prediction of each
    mode's smallest d that meets the leak budget; if the prediction falls
    short, the run is retried once with every mode at twice its cutoff.
    Explicit cutoffs are never retried: their leak failure is raised.

    Each of ``plan.branches`` is a herald sequence applied, like the spec's own
    heralds, to the spec's final ensemble.  Branches run at the same
    cutoffs and under the same leak checks, so a leak in a branch also triggers
    the retry.  The results are in ``ExecutionResult.branches``, with herald
    probabilities conditional on the final ensemble.
    """
    try:
        return _execute_staged(plan, plan.cutoffs)
    except LeakBudgetError:
        if not plan.may_double:
            raise
        doubled = {m: 2 * d for m, d in plan.cutoffs.items()}
        return _execute_staged(plan, doubled)


def _herald(
    ens: Ensemble, stmt: HeraldStmt, monitor: _LeakMonitor
) -> tuple[Ensemble, HeraldRecord]:
    """One herald: condition and trace, compact, then check the leak."""
    d = ens.dims[ens.modes.index(stmt.mode)]
    before = ens.weight
    ens = ens.condition(stmt.mode, measurement.povm_diagonal(
        stmt.requirement, stmt.count, stmt.eta, stmt.onoff, d))
    after = ens.weight
    if after <= 0.0:
        raise ZeroProbabilityError(
            f"herald {stmt.requirement} on mode {stmt.mode!r} has zero probability"
        )
    ens.compact()
    if ens.modes:
        monitor.check(f"herald {stmt.mode}", ens.top_level_population())
    return ens, HeraldRecord(stmt.mode, stmt.requirement, after / before)


def _attach(ens: Ensemble, stmt: InputStmt, d: int) -> Ensemble:
    """``ens`` with the input ``stmt`` appended at d levels as the slowest digit."""
    if stmt.kind == "vacuum":
        # |v⟩⊗|0⟩ is v zero-padded
        members = np.zeros((d * ens.dim, ens.members.shape[1]), np.complex128)
        members[: ens.dim] = ens.members
        return Ensemble(ens.modes + (stmt.mode,), ens.dims + (d,), members, ens.signs)
    # joint index = old + dim_old * new_level; member index = k_old * K_new + k_new
    new = _input_members(stmt, Cutoff(d))
    members = np.einsum("nj,oi->noij", new, ens.members)
    ens = Ensemble(ens.modes + (stmt.mode,), ens.dims + (d,), members.reshape(d * ens.dim, -1),
                   ens.signs)
    if ens.signs is not None:
        ens.members = _pack_by_charge(ens.members, ens._charges())
    ens.compact()
    return ens


def _execute_staged(plan: ExecutionPlan, cutoffs: dict[str, int]) -> ExecutionResult:
    spec = plan.spec
    inputs = {inp.mode: inp for inp in spec.inputs}
    monitor = _LeakMonitor(plan.leak_budget, cutoffs)
    heralds: list[HeraldRecord] = []
    # no mode yet: the one-member ensemble on the one-dimensional empty space
    ens = Ensemble((), (), np.ones((1, 1), dtype=np.complex128), plan.charge_signs)

    def attach(modes) -> None:
        nonlocal ens
        for mode in modes:
            if mode not in ens.modes:
                ens = _attach(ens, inputs[mode], cutoffs[mode])
                monitor.check(f"prepare {mode}", ens.top_level_population())

    for op in spec.operations:
        if isinstance(op, ElementStmt):
            attach(op.modes)
            _check_modes(op)
            d1, d2 = (cutoffs[m] for m in op.modes)
            sectors = element_sectors(op.kind, op.value, d1, d2)
            ens.members = apply_matrix(ens.members, ens.modes, ens.dims, sectors, op.modes)
            monitor.check(f"{op.kind} {'/'.join(op.modes)}", ens.top_level_population())
        else:
            attach((op.mode,))
            ens, record = _herald(ens, op, monitor)
            heralds.append(record)
    attach(out.mode for out in spec.outputs if out.mode is not None)
    outputs = _evaluate_outputs(spec, ens.reduced, heralds)

    results = []
    for stmts in plan.branches:
        branch, records = ens, []
        for stmt in stmts:
            branch, record = _herald(branch, stmt, monitor)
            records.append(record)
        results.append((branch, records))

    return ExecutionResult(
        plan=plan,
        cutoffs=cutoffs,
        final_state=ens if ens.modes else None,
        heralds=heralds,
        leak_max=monitor.max_seen,
        outputs=outputs,
        branches=results,
    )


def execute_plan_brute(plan: ExecutionPlan) -> ExecutionResult:
    """Full-joint-space reference evaluator: no staging, traces only at the end.

    Every mode runs at one cutoff, the plan's largest.  The joint state is the
    tensor product of every declared input, in declared order, whether a
    statement uses the mode or not.  The plan's branches are not run.
    """
    d = plan.cutoff
    cutoff = Cutoff(d)
    spec = plan.spec
    state = reduce(tensor, (input_state(stmt, cutoff) for stmt in spec.inputs))
    heralds: list[HeraldRecord] = []
    measured: list[str] = []

    def weight(s: State) -> float:
        return s.norm_tag if isinstance(s, PureState) else s.trace_tag

    for op in spec.operations:
        if isinstance(op, ElementStmt):
            _check_modes(op)
            # the dense d²×d² unitary from the public builders
            build = beam_splitter_unitary if op.kind == "bs" else two_mode_squeezer_unitary
            state = apply(build(op.value, cutoff), op.modes, state)
            continue
        diag = measurement.povm_diagonal(op.requirement, op.count, op.eta, op.onoff, d)
        before = weight(state)
        state = apply(np.diag(np.sqrt(diag)), (op.mode,), state)
        after = weight(state)
        if after <= 0.0:
            raise ZeroProbabilityError(
                f"herald {op.requirement} on mode {op.mode!r} has zero probability"
            )
        heralds.append(HeraldRecord(op.mode, op.requirement, after / before))
        measured.append(op.mode)

    keep = tuple(m for m in state.modes if m not in measured)
    if not keep:
        final = None
    elif measured:
        final = partial_trace(state, keep)
    else:
        final = state

    return ExecutionResult(
        plan=plan,
        cutoffs=dict.fromkeys(spec.modes, d),
        final_state=final,
        heralds=heralds,
        leak_max=float("nan"),
        outputs=_evaluate_outputs(spec, lambda mode: partial_trace(final, (mode,)), heralds),
    )
