"""Simulator and analysis toolkit for a Mach-Zehnder interferometer whose
polarization qubit dephases through Gaussian frequency noise on the arms and
output paths: exact dephasing dynamics, information backflow detection,
CP-divisibility of the conditional output dynamics, and estimation of the
in-interferometer optical path difference from output-side memory effects."""

from .analysis import (
    LOCATIONS,
    TraceDistanceSeries,
    auto_scan_range,
    backflow_intervals,
    blp_measure,
    check_estimator_regime,
    estimate_interaction_time_difference,
    lambda_peak,
    time_difference_from_peak,
    trace_distance_series,
)
from .channels import single_path_kappa
from .core import (
    DensityMatrix,
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    effective_time,
    kappa_of_delay,
    pure_density,
    trace_distance,
)
from .errors import (
    ConfigError,
    EstimatorOutOfRegime,
    ImpossibleOutcome,
    MzDephaseError,
    PeakNotFound,
    ZeroCoherenceFactor,
)
from .interferometer import (
    averaged_state_outside,
    coherence_factors,
    coherence_transfer,
    conditional_state_outside,
    interference_kappas,
    joint_state_inside,
    path_probabilities,
    path_state_inside,
)
from .maps import (
    QuantumOperation,
    TraceCharacter,
    divisibility_scan,
    is_completely_positive,
    kraus_conditional,
    propagator,
    trace_character,
)
from .oracle import FrequencyGrid, OracleDeviation, oracle_compare

__version__ = "0.1.0"

__all__ = [
    "LOCATIONS",
    "TraceDistanceSeries",
    "auto_scan_range",
    "backflow_intervals",
    "blp_measure",
    "check_estimator_regime",
    "estimate_interaction_time_difference",
    "lambda_peak",
    "time_difference_from_peak",
    "trace_distance_series",
    "single_path_kappa",
    "DensityMatrix",
    "FrequencyDistribution",
    "InteractionWindow",
    "InterferometerConfig",
    "PolarizationState",
    "effective_time",
    "kappa_of_delay",
    "pure_density",
    "trace_distance",
    "ConfigError",
    "EstimatorOutOfRegime",
    "ImpossibleOutcome",
    "MzDephaseError",
    "PeakNotFound",
    "ZeroCoherenceFactor",
    "averaged_state_outside",
    "coherence_factors",
    "coherence_transfer",
    "conditional_state_outside",
    "interference_kappas",
    "joint_state_inside",
    "path_probabilities",
    "path_state_inside",
    "QuantumOperation",
    "TraceCharacter",
    "divisibility_scan",
    "is_completely_positive",
    "kraus_conditional",
    "propagator",
    "trace_character",
    "FrequencyGrid",
    "OracleDeviation",
    "oracle_compare",
]
