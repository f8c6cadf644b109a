"""Instrument-validity diagnostics: first-stage F and the Sargan J test.

The first-stage F compares restricted and unrestricted first-stage sums of
squares, so the two residual degrees of freedom can be reported directly. The
J statistic is m times the overall F of the regression of the 2SLS residuals
on the instruments and exogenous regressors; the conventional n*R^2 variant
and the instrument-block-only F are carried along as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ExactlyIdentifiedError,
    InsufficientObservationsError,
    MultipleEndogenousError,
)
from .estimators import (EstimateResult, ModelSpec, _columns, _first_stage_design, design_matrix,
                         sum_of_squares)
from .matrix import DEFAULT_RANK_TOL, solve_least_squares

if TYPE_CHECKING:
    from .dataio import PanelDataset

#: Weak-instrument rule of thumb: first-stage F at or above this passes.
F_RULE_OF_THUMB = 10.0


@dataclass(frozen=True)
class FTestReport:
    """Joint F test that all instrument coefficients in the first stage are zero."""

    f_statistic: float
    df_numerator: int
    df_denominator: int
    p_value: float
    passes_rule_of_thumb: bool
    restricted_df: int
    unrestricted_df: int


@dataclass(frozen=True)
class JTestReport:
    """Over-identification test; J = m * F of the residual regression."""

    j_statistic: float
    m: int
    k: int
    df: int
    p_value: float
    reject_at_5pct: bool
    residual_regression_f: float
    instrument_block_f: float
    n_r_squared: float


def f_upper_tail(x: float, df1: int, df2: int) -> float:
    """P(F(df1, df2) > x) = I_w(df2/2, df1/2), w = df2 / (df2 + df1 x): the regularized
    incomplete beta function by its continued fraction, on whichever side converges."""
    if x < 0:
        raise ValueError("F statistic must be non-negative")
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be at least 1")
    r = df1 * x / df2
    if not 0.0 < r < math.inf:  # x is 0, inf or nan
        return 1.0 if r == 0.0 else 0.0 if r > 0.0 else math.nan
    a, b = df2 / 2.0, df1 / 2.0
    # w and 1 - w each from r, so neither loses digits when the other is near 1.
    w, w_upper = 1.0 / (1.0 + r), r / (1.0 + r)
    front = math.exp(_log_inverse_beta(a, b) - a * math.log1p(r) + b * (math.log(r) - math.log1p(r)))
    if w < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, w) / a
    return 1.0 - front * _beta_fraction(b, a, w_upper) / b


def _log_inverse_beta(a, b):
    """ln Gamma(a+b) - ln Gamma(a) - ln Gamma(b). From 100 on, the larger argument's part comes
    from Stirling's series: the difference of two large lgamma values loses about 1e-9."""
    big, small = max(a, b), min(a, b)
    if big < 100.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    z = big + small
    return ((big - 0.5) * math.log1p(small / big) + small * (math.log(z) - 1.0) - math.lgamma(small)
            + sum(c * (z**-k - big**-k) for c, k in ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5))))


def _beta_fraction(a, b, x):
    """Continued fraction of I_x(a, b) by the modified Lentz method (Numerical Recipes,
    3rd ed., 6.4); it converges fast for x < (a + 1) / (a + b + 2)."""
    tiny, c = 1e-300, 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    h = d = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, 10_000):
        for step in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + step * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + step / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 3e-16:  # within a unit in the last place of 1
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def chi_square_upper_tail(x, df: int):
    """P(chi2(df) > x) in closed form for integer df (Abramowitz & Stegun 26.4.4-5): a finite
    Poisson sum for even df, erfc plus the half-integer terms for odd df.

    A float for a scalar `x`, an array of tail probabilities for an array.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square statistic must be non-negative")
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if df != int(df):
        raise ValueError("chi-square degrees of freedom must be an integer")
    h = np.minimum(x, np.finfo(float).max) / 2.0  # inf: terms 0 * finite = 0, not 0 * inf = nan
    pairs, odd = divmod(int(df), 2)
    term = np.exp(-h) * (2.0 * np.sqrt(h / np.pi) if odd else 1.0)
    p = np.vectorize(math.erfc, otypes=[float])(np.sqrt(h)) if odd else np.zeros_like(h)
    for j in range(pairs):
        p = p + term
        term = term * h / (j + 1.0 + odd / 2.0)
    return float(p) if p.ndim == 0 else p


def f_statistic(rss_restricted, rss_unrestricted, q, df_unrestricted):
    """F = [(RSS_r - RSS_u) / q] / [RSS_u / df_u], floored at 0; broadcasts over stacked fits.

    A zero RSS_u gives inf, or nan (0/0) where RSS_r is zero too; the RSS are numpy values,
    so neither raises.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.maximum(((rss_restricted - rss_unrestricted) / q)
                          / (rss_unrestricted / df_unrestricted), 0.0)


def _fit_rss(x, y, names):
    """(RSS, residual df, certified) of `y` on the design `x` with column `names`. An RSS at or
    below (DEFAULT_RANK_TOL * ||y||)^2 is an exact fit's rounding and counts as 0, one panel or a
    stack alike, so an exact fit gives `f_statistic` an F of inf."""
    sol = solve_least_squares(x, y, names)
    rss = sum_of_squares(sol.residuals)
    rss = np.where(rss <= DEFAULT_RANK_TOL**2 * sum_of_squares(y), 0.0, rss)
    return rss, y.shape[-1] - x.shape[-1], sol.certified


def first_stage_stats(spec: ModelSpec, columns):
    """(F, unrestricted df, restricted df, certified) of the instruments in the first stage
    of the spec's one endogenous regressor, on complete `columns` of shape (n,) or (R, n).
    The unrestricted design is 2SLS's first stage; the restricted one drops the instruments."""
    endog = columns[spec.endogenous_regressors[0]]
    n = endog.shape[-1]
    xu, names_u = _first_stage_design(spec, columns, endog.shape)
    xr, names_r = design_matrix(columns, spec.exogenous_regressors, spec.include_intercept, endog.shape)
    if n <= xu.shape[-1]:
        raise InsufficientObservationsError(f"{n} rows cannot support the unrestricted first stage")

    rss_u, df_u, ok_u = _fit_rss(xu, endog, names_u)
    rss_r, df_r, ok_r = _fit_rss(xr, endog, names_r)
    f = f_statistic(rss_r, rss_u, len(spec.instruments), df_u)
    return f, df_u, df_r, ok_u & ok_r


def sargan_stats(spec: ModelSpec, columns, residuals):
    """(J, p-value, overall F, block F, R^2, certified) of the regression of the 2SLS
    `residuals`, (n,) or (R, n), on an intercept, the instruments and the exogenous regressors.
    J = m * its overall F; the block F drops the instruments. A constant residual gives
    R^2 = 0 and F = 0, a perfect fit an infinite or undefined F."""
    m = len(spec.instruments)
    n = residuals.shape[-1]
    x_full, names_full = design_matrix(columns, (*spec.instruments, *spec.exogenous_regressors),
                                       True, residuals.shape)
    x_exog, names_exog = design_matrix(columns, spec.exogenous_regressors, True, residuals.shape)
    if n <= x_full.shape[-1]:
        raise InsufficientObservationsError(f"{n} rows cannot support the residual regression")

    rss_full, df2, ok_full = _fit_rss(x_full, residuals, names_full)
    rss_exog, _, ok_exog = _fit_rss(x_exog, residuals, names_exog)
    dev = residuals - residuals.mean(axis=-1, keepdims=True)
    tss = sum_of_squares(dev)
    q = x_full.shape[-1] - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(tss > 0, 1.0 - rss_full / tss, 0.0)
        overall_f = np.where(tss > 0, np.maximum((r2 / q) / ((1.0 - r2) / df2), 0.0), 0.0)
    block_f = f_statistic(rss_exog, rss_full, m, df2)

    j = m * overall_f
    p_value = chi_square_upper_tail(j, m - len(spec.endogenous_regressors))
    return j, p_value, overall_f, block_f, r2, ok_full & ok_exog


def first_stage_f(spec: ModelSpec, data: "PanelDataset") -> FTestReport:
    """Conditional F test for instrument relevance.

    Unrestricted: endogenous ~ intercept + exogenous + instruments.
    Restricted:   endogenous ~ intercept + exogenous.
    F = [(RSS_r - RSS_u) / m] / [RSS_u / df_u], evaluated on the same rows the
    2SLS estimation uses.
    """
    if len(spec.endogenous_regressors) != 1:
        raise MultipleEndogenousError(
            f"first-stage F supports exactly one endogenous regressor, "
            f"got {len(spec.endogenous_regressors)}"
        )
    if not spec.instruments:
        raise ValueError("spec has no instruments")

    mask = data.complete_rows(
        (spec.dependent, *spec.regressors, *spec.instruments)
    )
    rows = np.flatnonzero(mask)
    columns = _columns(data, rows, (*spec.regressors, *spec.instruments))
    m = len(spec.instruments)

    f, df_u, df_r, _ = first_stage_stats(spec, columns)
    f = float(f)
    return FTestReport(
        f_statistic=f,
        df_numerator=m,
        df_denominator=df_u,
        p_value=f_upper_tail(f, m, df_u),
        passes_rule_of_thumb=f >= F_RULE_OF_THUMB,
        restricted_df=df_r,
        unrestricted_df=df_u,
    )


def sargan_j(tsls_result: EstimateResult, spec: ModelSpec, data: "PanelDataset") -> JTestReport:
    """Sargan over-identification test from the 2SLS residual regression.

    Regresses the 2SLS residuals on an intercept, the instruments and the
    exogenous regressors, takes that regression's overall F, and sets
    J = m * F with J ~ chi2(m - k) under instrument exogeneity. Requires
    m > k; the 5% decision uses the upper-tail chi-square critical value
    (equivalently, p_value < 0.05).
    """
    m = len(spec.instruments)
    k = len(spec.endogenous_regressors)
    if m <= k:
        raise ExactlyIdentifiedError(
            f"need more instruments than endogenous regressors, got m={m}, k={k}"
        )
    if tsls_result.estimator_tag != "tsls":
        raise ValueError("sargan_j needs a 2SLS result")

    rows = tsls_result.row_indices
    n = rows.shape[0]
    columns = _columns(data, rows, (*spec.instruments, *spec.exogenous_regressors))

    stats = sargan_stats(spec, columns, tsls_result.residuals)
    j, p_value, overall_f, block_f, r2 = (float(v) for v in stats[:5])
    df = m - k
    return JTestReport(
        j_statistic=j,
        m=m,
        k=k,
        df=df,
        p_value=p_value,
        reject_at_5pct=p_value < 0.05,
        residual_regression_f=overall_f,
        instrument_block_f=block_f,
        n_r_squared=n * r2,
    )
