"""qocsim: truncated Fock-space simulation of heralded add/subtract interferometry.

Every state is a plain complex ndarray, a ket or a density matrix, and its
mode labels are kept beside it by whoever holds it: a circuit's output
statement, a ``SchemeResult`` field or an executor's list of modes.  The
package is organized as:

* :mod:`qocsim.core` — plain-array operators applied to plain-array states over named modes
* :mod:`qocsim.elements` — input amplitudes and optical-element unitaries (ndarrays)
* :mod:`qocsim.measurement` — the diagonal POVM element of a herald, from its fields
* :mod:`qocsim.phasespace` — Wigner grids and fidelities
* :mod:`qocsim.dsl` — the `.qoc` circuit language, parser, and compiler
* :mod:`qocsim.engine` — staged and brute-force plan executors
* :mod:`qocsim.scheme` — the four-mode interferometer and its diagnostics
* :mod:`qocsim.cli` — the ``qocsim`` command-line tool
"""

from .core import annihilation_matrix, apply, partial_trace, truncated_commutator
from .dsl import CircuitSpec, compile_circuit, parse
from .elements import beam_splitter_unitary, two_mode_squeezer_unitary
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
    run_interferometer,
)

__version__ = "0.1.0"
