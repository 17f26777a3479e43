"""The benchmark's workloads and the one operation ("op") each of them repeats.

Only the standard library is imported at module level: the worker times
``import qocsim`` (which pulls in numpy and scipy) as part of set-up, so
nothing here may import them first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# SchemeResult fields compared with the reference table.  The attenuated-input
# fidelity is left out on purpose: its reference convention is still open.
PROBABILITY_FIELDS = (
    "pd0_probability",
    "pd1_weight",
    "pd2_weight",
    "p_b",
    "p_c",
    "p_bc",
    "p_bc_given_b",
    "p_bc_given_c",
)
FIDELITY_FIELDS = ("fidelity_pd2_vs_input", "fidelity_pd1_vs_input")


@dataclass(frozen=True)
class Workload:
    """A family of ``run_interferometer`` inputs.

    ``ranges`` are drawn uniformly for each pool point and ``fixed`` is merged
    in unchanged; both are ``SchemeParams`` keyword arguments.  ``key`` is the
    drawn parameter that sets an op's cost (it picks the cutoff or the Wigner
    evaluation size); the runner spreads every run's ops evenly over its range.
    """

    name: str
    input_kind: str
    ranges: dict[str, tuple[float, float]]
    fixed: dict[str, float] = field(default_factory=dict)
    key: str = "alpha"
    pool_size: int = 128
    wigner: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Distinct (T, s) on every op, so every element unitary is built cold,
        # and the adaptive cutoff (12-15) always fails the leak budget and is
        # doubled.  Pure (K=1) ensemble; no Wigner evaluation.
        Workload(
            "sweep-cold",
            "coherent",
            {"alpha": (1.2, 1.6), "transmittivity": (0.85, 0.99), "coupling": (0.05, 0.3)},
            pool_size=256,
        ),
        # Same cutoffs (16, then 32) and elements on every op, so after the
        # first op only ensemble application on the mixed (K>1) path is left.
        Workload(
            "thermal-steady",
            "thermal",
            {"nbar": (0.9, 1.0)},
            {"transmittivity": 0.99, "coupling": 0.1},
            key="nbar",
        ),
        # d=12 with no retry and a warm element cache; the op is dominated by
        # two 81x81 Wigner grids.
        Workload(
            "wigner-map",
            "coherent",
            {"alpha": (0.4, 1.0)},
            {"transmittivity": 0.99, "coupling": 0.1},
            wigner=True,
        ),
    )
}


def run_op(workload: Workload, point: dict[str, float]) -> dict[str, float]:
    """One op through the public API; returns the outputs the gate checks.

    Functions are looked up as module attributes at call time, so that the
    traced run's wrappers see every call.
    """
    from qocsim import phasespace, scheme

    params = scheme.SchemeParams(input_kind=workload.input_kind, **point)
    result = scheme.run_interferometer(params)
    out = {f: float(getattr(result, f)) for f in PROBABILITY_FIELDS + FIDELITY_FIELDS}
    out["leak_max"] = float(result.leak_max)
    out["leak_budget"] = float(params.leak_budget)
    out["cutoff"] = int(result.cutoff)
    if workload.wigner:
        pd1 = scheme.branch_wigner(result, "pd1")
        pd2 = scheme.branch_wigner(result, "pd2")
        out["pd1_min_wigner"] = phasespace.min_wigner(pd1)[1]
        out["pd2_min_wigner"] = phasespace.min_wigner(pd2)[1]
        out["pd1_grid_integral"] = phasespace.grid_integral(pd1)
    return out
