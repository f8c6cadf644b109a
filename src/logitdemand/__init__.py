"""Logit demand estimation toolkit.

Inverts observed market shares into mean utilities, estimates the linear
demand equation by OLS, two-way fixed effects or 2SLS with robust standard
errors, tests instrument validity (first-stage F, Sargan J), and validates
the whole pipeline against a seeded synthetic-market Monte Carlo.
"""

__version__ = "0.1.0"

from .dataio import (
    DEPENDENT_COLUMN,
    PanelDataset,
    compute_dependent,
    load_panel,
    parse_spec,
    write_panel_csv,
)
from .demand import (
    invert_shares,
    predict_shares,
    shares_from_quantities,
)
from .diagnostics import (
    FTestReport,
    JTestReport,
    chi_square_upper_tail,
    f_upper_tail,
    first_stage_f,
    sargan_j,
)
from .estimators import (
    EstimateResult,
    ModelSpec,
    estimate,
    estimate_ols,
    estimate_tsls,
    estimate_two_way_fe,
    robust_covariance,
)
from .matrix import LeastSquaresSolution, solve_least_squares
from .simulate import (
    DgpParams,
    McSummary,
    TrueMarket,
    default_model_spec,
    generate_market,
    run_monte_carlo,
)

__all__ = [
    "DEPENDENT_COLUMN",
    "DgpParams",
    "EstimateResult",
    "FTestReport",
    "JTestReport",
    "LeastSquaresSolution",
    "McSummary",
    "ModelSpec",
    "PanelDataset",
    "TrueMarket",
    "chi_square_upper_tail",
    "compute_dependent",
    "default_model_spec",
    "estimate",
    "estimate_ols",
    "estimate_tsls",
    "estimate_two_way_fe",
    "f_upper_tail",
    "first_stage_f",
    "generate_market",
    "invert_shares",
    "load_panel",
    "parse_spec",
    "predict_shares",
    "robust_covariance",
    "run_monte_carlo",
    "sargan_j",
    "shares_from_quantities",
    "solve_least_squares",
    "write_panel_csv",
]
