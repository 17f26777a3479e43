"""qocsim: truncated Fock-space simulation of heralded add/subtract interferometry.

The package is organized as:

* :mod:`qocsim.core` — states, and plain-array operators applied to named modes
* :mod:`qocsim.elements` — input states and optical-element unitaries (ndarrays)
* :mod:`qocsim.measurement` — the diagonal POVM element of a herald, from its fields
* :mod:`qocsim.phasespace` — Wigner grids, fidelities and grid files
* :mod:`qocsim.dsl` — the `.qoc` circuit language, parser, and compiler
* :mod:`qocsim.engine` — staged and brute-force plan executors
* :mod:`qocsim.scheme` — the four-mode interferometer and its diagnostics
* :mod:`qocsim.cli` — the ``qocsim`` command-line tool
"""

from importlib import resources

from .core import (
    Cutoff,
    MixedState,
    PureState,
    annihilation_matrix,
    apply,
    partial_trace,
    tensor,
    truncated_commutator,
)
from .dsl import CircuitSpec, compile_circuit, parse, print_circuit
from .elements import (
    beam_splitter_unitary,
    coherent_state,
    fock_state,
    thermal_state,
    two_mode_squeezer_unitary,
    vacuum,
)
from .engine import LeakBudgetError, execute_plan, execute_plan_brute
from .measurement import ZeroProbabilityError
from .phasespace import (
    GridSpec,
    WignerGrid,
    fidelity,
    min_wigner,
    wigner,
)
from .scheme import (
    SchemeParams,
    SchemeResult,
    build_fig1_circuit,
    commutation_report,
    efficiency_degradation,
    run_interferometer,
)

__version__ = "0.1.0"


def builtin_circuit_text(name: str = "fig1") -> str:
    """Canonical text of a circuit shipped with the package."""
    return resources.files("qocsim").joinpath(f"circuits/{name}.qoc").read_text()
