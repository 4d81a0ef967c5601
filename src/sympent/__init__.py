"""Bipartite entanglement entropy of multimode Gaussian states.

Covariance matrices (qqpp ordering, hbar = 1, vacuum = I/2) are the state
representation; symplectic spectra carry the entropies; model builders supply
ground states of quadratic Hamiltonians; a truncated number-basis oracle
recomputes every entropy by direct probability sums.
"""

__version__ = "0.1.0"

from .entropy import (
    S_COUNT_TOL,
    SIGMA_TOL,
    EntropyReport,
    ThermalMode,
    entanglement_entropy,
    mode_entropy,
    thermal_parameter,
)
from .errors import (
    DimensionError,
    InvalidPartitionError,
    InvalidStateError,
    MalformedInputError,
    NumericalFailureError,
    ParameterError,
    SympentError,
    TruncationError,
    UnphysicalEigenvalueError,
)
from .fock import (
    TAIL_LIMIT,
    required_n_max,
    thermal_entropy_bruteforce,
    thermal_probabilities,
)
from .logbase import BITS, LN2, NATS
from .models import (
    MAX_MODES,
    ModelParams,
    QuadraticModel,
    TwoOscillatorParams,
    chain_model,
    ground_state_covariance,
)
from .states import (
    DEFAULT_TOL,
    HBAR,
    ORDERING,
    VACUUM_SIGMA,
    ModePartition,
    ValidationReport,
    characteristic_function,
    covariance_from_csv_text,
    covariance_from_json_dict,
    covariance_to_csv_text,
    covariance_to_json_dict,
    heisenberg_margin,
    reduce,
    vacuum,
    validate,
    wigner_values,
)
from .symplectic import (
    WilliamsonDecomposition,
    random_symplectic,
    symplectic_form,
    symplectic_spectrum,
    williamson,
)

__all__ = [
    "BITS",
    "DEFAULT_TOL",
    "DimensionError",
    "EntropyReport",
    "HBAR",
    "InvalidPartitionError",
    "InvalidStateError",
    "LN2",
    "MAX_MODES",
    "MalformedInputError",
    "ModePartition",
    "ModelParams",
    "NATS",
    "NumericalFailureError",
    "ParameterError",
    "QuadraticModel",
    "S_COUNT_TOL",
    "SIGMA_TOL",
    "SympentError",
    "TAIL_LIMIT",
    "ThermalMode",
    "TruncationError",
    "TwoOscillatorParams",
    "UnphysicalEigenvalueError",
    "VACUUM_SIGMA",
    "ValidationReport",
    "WilliamsonDecomposition",
    "chain_model",
    "characteristic_function",
    "covariance_from_csv_text",
    "covariance_from_json_dict",
    "covariance_to_csv_text",
    "covariance_to_json_dict",
    "entanglement_entropy",
    "ground_state_covariance",
    "heisenberg_margin",
    "mode_entropy",
    "random_symplectic",
    "reduce",
    "required_n_max",
    "symplectic_form",
    "symplectic_spectrum",
    "thermal_entropy_bruteforce",
    "thermal_parameter",
    "thermal_probabilities",
    "vacuum",
    "validate",
    "wigner_values",
    "williamson",
]
