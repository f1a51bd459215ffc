"""stepgap: spectra, gaps and adiabatic dynamics along stepwise interpolation paths."""

__version__ = "0.1.0"

from .pauli import (  # noqa: F401
    GateSpec,
    OperatorSum,
    PauliString,
    ProjectorSum,
    basis_state,
    blend,
    conjugate,
    ghz_state,
    parity_apply,
    parity_expectation,
    parity_operator,
    uniform_superposition,
)
from .models import (  # noqa: F401
    BuildOrder,
    InterpolationPath,
    LatticeGraph,
    chain_lattice,
    cluster1d_step_hamiltonian,
    cluster_hamiltonian,
    cluster_state,
    grid_lattice,
    ising_endpoints,
    ising_step_hamiltonian,
    lattice_build_order,
    make_path,
)
from .spectra import (  # noqa: F401
    ConvergenceError,
    GapCurve,
    SpectrumResult,
    gap_scan,
    lowest_eigenpairs,
    sector_gap,
    sector_ground_state,
    segment_minimum,
)
from .dynamics import (  # noqa: F401
    EvolutionResult,
    ScalingRow,
    adiabatic_run,
    evolution_target,
    evolve,
    fidelity,
    runtime_for_fidelity,
)
