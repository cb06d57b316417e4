"""Stochastic jump unravelings for trace-nonpreserving master equations.

Pure-state trajectories carry integer multiplicities that grow and shrink via
replication and disappearance events, so positivity- and Hermiticity-preserving
generators with arbitrary decay operators (and, with reverse jumps, negative
rates) can be simulated as averages over piecewise-deterministic realizations.
"""

__version__ = "0.1.0"

from .divisibility import (
    DivisibilityReport,
    choi_eigenvalues,
    divisibility_report,
)
from .ensemble import Ensemble
from .engine import RunResult
from .exact import (
    DynamicalMap,
    HierarchyResult,
    OperatorTrajectory,
    TimeGrid,
    integrate,
    propagate_map,
    solve_hierarchy,
)
from .experiments import (
    HeisenbergConfig,
    HeisenbergResult,
    MomentSeries,
    PhotonCountingConfig,
    TiltedTraceResult,
    run_heisenberg,
    run_photon_counting,
    run_tilted_trace,
)
from .linops import (
    HermitianEigen,
    expectation,
    hermitian_eig,
    split_hermitian,
    split_positive,
)
from .model import (
    JumpChannel,
    SourceTerm,
    TimeScalar,
    TnpModel,
    boson_ops,
    heisenberg_qubit,
    pauli_ops,
    tilted_lindbladian,
)
from .ro import RoStrategy
from . import mcwf, ro  # noqa: F401  (scheme-level runners: mcwf.run / ro.run)
