"""Bayes-factor control charts for autocorrelated multivariate processes.

A discount-weighted local level filter produces one-step predictive error
densities; the log Bayes factor of the predictive vs a target error density
is monitored with a modified EWMA chart whose limits are calibrated by
Monte Carlo to a target in-control average run length.
"""

from .bayesfactor import TargetSpec, lbf_series
from .chart import (
    Ar1Model,
    CalibrationResult,
    ChartConfig,
    asymptotic_sigma_z2,
    calibrate_c,
    design_chart,
    estimate_arl,
    fit_ar1,
    run_chart,
)
from .diagnostics import (
    FitReport,
    fit_report,
    lag1_autocorr,
    mae,
    mape,
    msse,
    skewness,
    standardize_errors,
)
from .dwr import (
    DwrConfig,
    FilterState,
    init,
    run_filter,
    scale_sequence,
    steady_state_scale,
)
from .exceptions import (
    BfchartError,
    BracketFailure,
    CovarianceNotReady,
    DegenerateFit,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    NonFiniteScore,
    NonStationary,
    NotPositiveDefinite,
    SchemaMismatch,
    TooShort,
    ZeroVariance,
)
from .linalg import (
    cholesky,
    make_rng,
    sample_mvn,
    sym_inv_sqrt,
)
from .simulate import (
    Scenario,
    gen_ar1,
    gen_iid,
    gen_local_level,
    level_noise_scale,
    reference_scenarios,
    scenario_lbf_study,
)
from .workflow import (
    FittedModel,
    MonitorResult,
    estimate_target,
    phase1,
    phase2,
)

__version__ = "0.1.0"
