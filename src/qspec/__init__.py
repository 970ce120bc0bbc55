"""Sampling many-body spectral functions with phase estimation.

The package pairs a dense state-vector simulator of the generative circuit
(purified operator state, counter-propagating copies, inverse Fourier
transform, phase-register measurement) with an exact-diagonalization oracle
that evaluates the same statistics in closed form, so every circuit result
can be checked bin by bin.
"""

from .errors import (
    ConfigError,
    DegenerateAngleError,
    DimensionMismatchError,
    HermiticityError,
    NormalizationError,
    PrepExhaustedError,
    QspecError,
    RegisterError,
    ResourceCapError,
    UnitarityError,
    ZeroNormError,
    ZeroOperatorError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    PrepSettings,
    QpeSettings,
    run_experiment,
    validate_config,
)
from .models import (
    EigenvalueDistribution,
    ModelSpec,
    PauliTerm,
    analytic_moments,
    build_operator,
    heisenberg,
    observable_spec,
    sample_eigenvalues,
    synthetic_diagonal_observable,
    tilted_ising,
)
from .oracle import (
    SpectrumTable,
    TransitionTable,
    correlation_series,
    distribution_distance,
    exact_outcome_distribution,
    spectral_function,
    transition_weights,
)
from .purify import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    EnsembleSpec,
    base_state,
    gibbs,
    ground_state_degeneracy,
    thermal_operator_state,
)
from .qpe import (
    PhaseDistribution,
    ResolutionPlan,
    outcome_frequency,
    plan_resolution,
    run_qpe,
    sample_outcomes,
)
from .simcore import (
    QUBIT_CAP,
    EigenDecomposition,
    HermitianOperator,
    StateVector,
    eig_hermitian,
    overlap,
)
from .stateprep import (
    MomentSet,
    PrepOutcome,
    SuccessBound,
    acceptance_probability,
    choose_phi,
    choose_phi_for_distribution,
    moment_ratio_constant,
    moments,
    preparation_fidelity,
    run_prep_circuit,
    success_probability_bound,
)

__version__ = "0.1.0"
