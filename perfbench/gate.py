"""Per-op correctness gate: physical invariants plus the stored reference table.

Tolerance.  The leak budget ε bounds the top-level population of every live
mode after each of the ``LEAK_STAGES`` checked stages of one execution, so a
run at any cutoff that meets the budget loses at most ``LEAK_STAGES·ε`` of the
PD0-heralded weight.  Conditioning on a branch of weight w magnifies that to
at most ``LEAK_STAGES·ε/w`` relative to the branch.  That is the tolerance:
relative for probabilities, absolute for fidelities, and absolute times the
Wigner scale 2/π for Wigner values.  A legitimate change of cutoff moves the
outputs by ≲1e-6 relative; swapping the BS3 sign moves them by 1e-1 or more.
"""

from __future__ import annotations

import math

from workloads import FIDELITY_FIELDS, PROBABILITY_FIELDS

# leak-checked stages in one execution of the Fig. 1 plan: 4 prepares,
# 4 unitaries and 3 heralds
LEAK_STAGES = 11
# the default 81x81 grid spans |Re β|, |Im β| ≤ 3; the PD1 branch at α=1 has
# 2e-4 of its weight outside it
GRID_INTEGRAL_TOL = 1e-3


def tolerance(ref: dict[str, float], leak_budget: float) -> float:
    return LEAK_STAGES * leak_budget / min(ref["pd1_weight"], ref["pd2_weight"])


def check(out: dict[str, float], ref: dict[str, float]) -> list[str]:
    """Everything wrong with one op's outputs; empty when the op is correct.

    Comparisons are written so that a NaN fails them.
    """
    problems = []
    budget = out["leak_budget"]
    for f in PROBABILITY_FIELDS + FIDELITY_FIELDS:
        if not 0.0 <= out[f] <= 1.0:
            problems.append(f"{f}={out[f]!r} outside [0, 1]")
    if not out["p_bc"] <= min(out["p_b"], out["p_c"]):
        problems.append(f"p_bc={out['p_bc']!r} exceeds min(p_b, p_c)")
    if not (out["pd1_weight"] > 0.0 and out["pd2_weight"] > 0.0):
        problems.append("a branch weight is not positive")
    if not out["leak_max"] <= budget:
        problems.append(f"leak_max={out['leak_max']!r} exceeds the budget {budget!r}")

    tol = tolerance(ref, budget)
    limits = {f: tol * abs(ref[f]) for f in PROBABILITY_FIELDS}
    limits.update({f: tol for f in FIDELITY_FIELDS})
    if "pd1_min_wigner" in ref:
        limits["pd1_min_wigner"] = 2.0 / math.pi * tol
        if not out["pd1_min_wigner"] < 0.0:
            problems.append(f"PD1 Wigner minimum {out['pd1_min_wigner']!r} is not negative")
        if not abs(out["pd1_grid_integral"] - 1.0) <= GRID_INTEGRAL_TOL:
            problems.append(f"PD1 grid integral {out['pd1_grid_integral']!r} is not near 1")
    for f, limit in limits.items():
        if not abs(out[f] - ref[f]) <= limit:
            problems.append(f"{f}={out[f]!r} differs from reference {ref[f]!r} by more than {limit:.3g}")
    return problems
