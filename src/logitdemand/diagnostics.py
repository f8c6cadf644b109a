"""Instrument-validity diagnostics: first-stage F and the Sargan J test.

The first-stage F compares restricted and unrestricted first-stage sums of
squares, so the two residual degrees of freedom can be reported directly; both
come from the one factor of 2SLS's own first stage (`estimators.first_stage`). The
J statistic is m times the overall F of the regression of the 2SLS residuals
on the exogenous regressors and instruments, solved on that factor's few rows;
the n*R^2 variant and the instrument-block-only F are carried along as
cross-checks. Each restricted regression is a design's leading columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    EstimationError,
    ExactlyIdentifiedError,
    InsufficientObservationsError,
    MultipleEndogenousError,
    OrderConditionViolatedError,
)
from .estimators import (INTERCEPT_NAME, EstimateResult, ModelSpec, _columns, first_stage,
                         tsls_coordinates)
from .matrix import solve_least_squares

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


def first_stage_stats(rss, m, n):
    """(F, unrestricted df, restricted df) of the m instruments in a first stage on n rows, from
    the `nested_rss` of its fit (`estimators.first_stage`), one panel's or a stack's. The
    unrestricted fit takes every column of the design; the restricted one drops the last m, the
    instruments."""
    df_u = n - (rss.shape[-1] - 1)
    return f_statistic(rss[..., -1 - m], rss[..., -1], m, df_u), df_u, df_u + m


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def sargan_stats(spec: ModelSpec, first, coefficients, n):
    """(J, p-value, overall F, block F, R^2, certified) of the 2SLS residuals y - X b on n rows
    regressed on an intercept (`first`'s last target), the exogenous regressors and the
    instruments in the coordinates of the 2SLS factor `first`. J = m * its overall F; the block F
    drops the instruments. A constant residual gives R^2 = F = 0, a perfect fit inf or nan."""
    m = len(spec.instruments)
    z, x, y = tsls_coordinates(spec, first)
    design = np.concatenate([first.qty[..., -1:], z[..., int(spec.include_intercept):]], axis=-1)
    if n <= design.shape[-1]:
        raise InsufficientObservationsError(f"{n} rows cannot support the residual regression")

    sol = solve_least_squares(design, y - np.matvec(x, coefficients),
                              (INTERCEPT_NAME, *spec.exogenous_regressors, *spec.instruments))
    rss, df2 = sol.nested_rss, n - design.shape[-1]
    # The TSS and the RSS without the instruments are those of the leading columns.
    tss, rss_exog, rss_full = rss[..., 1], rss[..., -1 - m], rss[..., -1]
    q = design.shape[-1] - 1
    r2 = np.where(tss > 0, 1.0 - rss_full / tss, 0.0)
    overall_f = np.where(tss > 0, np.maximum((r2 / q) / ((1.0 - r2) / df2), 0.0), 0.0)
    block_f = f_statistic(rss_exog, rss_full, m, df2)

    j = m * overall_f
    p_value = chi_square_upper_tail(j, m - len(spec.endogenous_regressors))
    return j, p_value, overall_f, block_f, r2, sol.certified


def first_stage_f(spec: ModelSpec, data: "PanelDataset") -> FTestReport:
    """Conditional F test for instrument relevance in the first stage of the spec's 2SLS.

    Unrestricted: endogenous ~ intercept + exogenous + instruments.
    Restricted:   endogenous ~ intercept + exogenous.
    F = [(RSS_r - RSS_u) / m] / [RSS_u / df_u] on the rows the 2SLS estimation uses, from
    the one factor of `estimators.first_stage`. A pooled OLS spec is tested as its 2SLS; a
    `two_way_fe` spec raises ValueError, too few instruments `OrderConditionViolatedError`,
    k != 1 `MultipleEndogenousError`, and an RSS beyond the float range `EstimationError`.
    """
    m, k = len(spec.instruments), len(spec.endogenous_regressors)
    if spec.estimator == "two_way_fe":
        raise ValueError(f"the spec's estimator is {spec.estimator!r}; diagnose tests a pooled "
                         "first stage, and first-stage diagnostics with fixed effects are not "
                         "supported yet")
    if not m:
        raise OrderConditionViolatedError("spec has no instruments; nothing to diagnose")
    if m < k:
        raise OrderConditionViolatedError(f"{m} instruments cannot identify {k} endogenous "
                                          "regressors")
    if k != 1:
        raise MultipleEndogenousError(
            f"first-stage F supports exactly one endogenous regressor, got {k}"
        )

    names = (spec.dependent, *spec.regressors, *spec.instruments)
    rows = np.flatnonzero(data.complete_rows(names))
    rss = first_stage(spec, _columns(data, rows, names))[1].nested_rss[0]
    if not np.isfinite(rss[[-1 - m, -1]]).all():
        raise EstimationError("the first stage overflows: its residual sum of squares is not "
                              "finite; rescale the endogenous regressor or the instruments")
    f, df_u, df_r = first_stage_stats(rss, m, rows.size)
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

    Takes the 2SLS residuals y - X b, with the actual regressors X, on the spec's complete
    rows of `data`, regresses them on an intercept, the instruments and the exogenous
    regressors in those rows' own factor (`tsls_result` may come from other rows), takes that
    regression's overall F, and sets J = m * F with J ~ chi2(m - k) under instrument
    exogeneity. Requires m > k; the 5% decision uses the upper-tail chi-square critical value
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

    names = (spec.dependent, *spec.regressors, *spec.instruments)
    rows = np.flatnonzero(data.complete_rows(names))
    stats = sargan_stats(spec, first_stage(spec, _columns(data, rows, names))[1],
                         tsls_result.coefficients, rows.size)
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
        n_r_squared=rows.size * r2,
    )
