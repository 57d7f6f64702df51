"""Error exponents for Neyman-Pearson detection of a correlated Gaussian
field under uniform, clustered, and arbitrary periodic sensor activation,
with a Monte Carlo detection oracle validating every closed form."""

__version__ = "0.1.0"

from .errors import NumericFailure
from .field_model import (
    Clustered,
    FieldParams,
    Hypothesis,
    Periodic,
    Uniform,
    derive_rng,
)
from .kalman_exponent import (
    ExponentResult,
    ScalarInnovations,
    scalar_exponent_from_correlation,
    vector_exponent,
)
from .config_opt import (
    OptimalSpacingResult,
    SweepResult,
    cluster_size_sweep,
    correlation_sweep,
    offset_sweep_m2,
    offset_sweep_m3,
    optimal_spacing_curve,
    snr_sweep,
)
from .mc_detector import (
    DetectionEstimate,
    ValidationReport,
    estimate_miss_probability,
    uniform_family,
    validate_exponent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
