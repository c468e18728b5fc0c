"""Statevector toolkit for the critical Ising chain with a duality-defect
impurity: quantum-natural-gradient ground-state preparation, Hadamard-test
measurement protocols, braid loop operators, and zero-noise extrapolation."""

__version__ = "0.1.0"

from .ansatz import (
    AnsatzSpec,
    gate_generators,
    init_params,
    parameter_count,
    prepare_state,
)
from .measure import (
    EstimateRecord,
    ShotPlan,
    circuit_rng,
    gradient_shot,
    metric_shot,
    sample_pauli_expectation,
)
from .model import (
    ModelParams,
    build_hamiltonian,
    defect_coefficients,
    energy_scan,
    ground_energy_gap,
)
from .observables import (
    correlator_profile,
    correlator_profile_shot,
    correlator_zz,
    ybar_exact,
    ybar_hadamard,
)
from .paulis import PauliString, WeightedPauliSum, dense_matrix
from .qng import (
    OptimizeOptions,
    OptimizerState,
    TraceRow,
    derivative_state,
    gradient_exact,
    metric_exact,
    optimize,
    qng_step,
)
from .statevector import RotationGate, StateVector, expectation, plus_state
from .zne import (
    Circuit,
    NoiseModel,
    ZneSchedule,
    ansatz_circuit,
    extrapolate,
    fold_gates,
    noiseless_expectation,
    noisy_expectation,
    zne_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
