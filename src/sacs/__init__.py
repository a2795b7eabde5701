"""Anytime-valid confidence sequences for averaged stochastic approximation.

The package simulates averaged SA recursions (built-in linear and logistic
regression oracles), estimates the limiting sandwich covariance online, and
evaluates time-uniform confidence sequence boundaries against it, with a
Monte Carlo harness and CLI for coverage experiments.
"""

from .boundaries import (
    KINDS,
    NORM_BY_KIND,
    BoundarySpec,
    CsEvaluation,
    UndefinedBoundaryError,
    evaluate,
    gm_mixture_martingale,
    gm_volume_objective,
    lambda_star,
    radius_fixed,
    radius_gm,
    radius_grid,
    radius_lil_en,
    radius_lil_ub,
)
from .covariance import (
    SANDWICH_RTOL,
    plugin_rate_exponent,
    sandwich,
)
from .harness import (
    CSV_COLUMNS,
    CoverageReport,
    ExperimentConfig,
    RateProfile,
    ReportRow,
    emit_report,
    fit_rate,
    rate_exponents,
    report_to_csv,
    report_to_json,
    run_coverage,
    run_gaussian_check,
)
from .numerics import (
    NumericalError,
    SingularMatrixError,
    SymMatrix,
    Whitening,
    c_d_constant,
    lambert_w_m1,
    normal_quantile,
    pd_eigh,
    whiten,
)
from .sa_engine import (
    DivergenceError,
    ModelSpec,
    RngStream,
    StepSchedule,
    TrajectoryPoint,
    default_model,
    run_trajectory,
    sample_data_block,
    step_size,
    validate_rate_condition,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "NumericalError",
    "SingularMatrixError",
    "SymMatrix",
    "pd_eigh",
    "Whitening",
    "whiten",
    "lambert_w_m1",
    "c_d_constant",
    "normal_quantile",
    # engine
    "DivergenceError",
    "StepSchedule",
    "ModelSpec",
    "RngStream",
    "TrajectoryPoint",
    "step_size",
    "validate_rate_condition",
    "default_model",
    "sample_data_block",
    "run_trajectory",
    # covariance
    "SANDWICH_RTOL",
    "sandwich",
    "plugin_rate_exponent",
    # boundaries
    "KINDS",
    "NORM_BY_KIND",
    "UndefinedBoundaryError",
    "BoundarySpec",
    "CsEvaluation",
    "lambda_star",
    "radius_lil_ub",
    "radius_gm",
    "radius_lil_en",
    "radius_fixed",
    "radius_grid",
    "evaluate",
    "gm_mixture_martingale",
    "gm_volume_objective",
    # harness
    "CSV_COLUMNS",
    "ExperimentConfig",
    "ReportRow",
    "CoverageReport",
    "RateProfile",
    "rate_exponents",
    "run_coverage",
    "run_gaussian_check",
    "fit_rate",
    "report_to_csv",
    "report_to_json",
    "emit_report",
]
