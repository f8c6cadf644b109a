"""Demand-equation estimators: pooled OLS, two-way fixed effects, and 2SLS.

All three regress the inverted mean utility on product characteristics and
price, through one regression code (`pooled_fit`) for a single panel and for
a stack of Monte Carlo markets. Two-way fixed effects are a transform of the
columns (`absorb`): unit effects are demeaned away and the periods enter as
demeaned dummies, which reproduces the least-squares-dummy-variable (LSDV)
fit exactly on unbalanced panels without building its n x (J + T) design.
2SLS residuals always use the actual endogenous regressors, never the
first-stage fitted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    CollinearWithFixedEffectsError,
    EstimationError,
    InsufficientObservationsError,
    OrderConditionViolatedError,
    RankDeficientError,
)
from .matrix import DEFAULT_RANK_TOL, LeastSquaresSolution, solve_least_squares

if TYPE_CHECKING:
    from .dataio import PanelDataset

INTERCEPT_NAME = "const"

ESTIMATORS = ("ols", "two_way_fe", "tsls")
COVARIANCES = ("classical", "robust_hc0")


def estimator_defaults(estimator) -> dict:
    """The covariance and intercept a spec for `estimator` gets unless it names its own:
    HC0 for 2SLS and classical otherwise; no intercept under two-way fixed effects."""
    return {
        "covariance": "robust_hc0" if estimator == "tsls" else "classical",
        "include_intercept": estimator != "two_way_fe",
    }


@dataclass(frozen=True)
class ModelSpec:
    """Column roles and estimator options for one regression."""

    dependent: str
    exogenous_regressors: tuple = ()
    endogenous_regressors: tuple = ()
    instruments: tuple = ()
    include_intercept: bool = True
    estimator: str = "ols"
    covariance: str = "classical"

    def __post_init__(self):
        object.__setattr__(self, "exogenous_regressors", tuple(self.exogenous_regressors))
        object.__setattr__(self, "endogenous_regressors", tuple(self.endogenous_regressors))
        object.__setattr__(self, "instruments", tuple(self.instruments))
        if not self.dependent:
            raise ValueError("dependent column name is required")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.covariance not in COVARIANCES:
            raise ValueError(f"covariance must be one of {COVARIANCES}, got {self.covariance!r}")
        named = [*self.regressors, *self.instruments]
        if self.dependent in named:
            raise ValueError(f"dependent column {self.dependent!r} is also listed as a regressor "
                             "or an instrument")
        for name in named:
            if named.count(name) > 1:
                raise ValueError(f"column {name!r} is listed {named.count(name)} times across "
                                 "exogenous/endogenous/instruments; each column plays one role once")
        if self.estimator == "tsls" and len(self.instruments) < len(self.endogenous_regressors):
            raise OrderConditionViolatedError(
                f"{len(self.instruments)} instruments cannot identify "
                f"{len(self.endogenous_regressors)} endogenous regressors"
            )
        if self.estimator == "two_way_fe" and self.include_intercept:
            raise ValueError("two-way fixed effects absorb the intercept: include_intercept must be "
                             f"False, got {self.include_intercept!r}")
        if not self.regressors and not self.include_intercept:
            raise ValueError("spec has nothing to estimate: no regressors and no intercept")

    @property
    def regressors(self):
        return (*self.exogenous_regressors, *self.endogenous_regressors)

    def required_columns(self):
        cols = (self.dependent, *self.regressors)
        if self.estimator == "tsls":
            cols = (*cols, *self.instruments)
        return cols


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Coefficients, covariance and fit statistics from one estimation."""

    names: tuple
    coefficients: np.ndarray
    standard_errors: np.ndarray
    covariance_matrix: np.ndarray
    n_observations: int
    df_residual: int
    r_squared: float
    adjusted_r_squared: float
    residual_std_error: float
    estimator_tag: str
    covariance_tag: str
    fixed_effects: tuple | None = None

    @property
    def fixed_effect_values(self) -> dict | None:
        """The `fixed_effects` pairs (levels, effects) as {"unit": {level: effect}, "period": ...}."""
        if self.fixed_effects is None:
            return None
        return {factor: dict(zip(levels.tolist(), effects.tolist()))
                for factor, (levels, effects) in zip(("unit", "period"), self.fixed_effects)}

    def coefficient(self, name) -> float:
        return float(self.coefficients[self.names.index(name)])

    def standard_error(self, name) -> float:
        return float(self.standard_errors[self.names.index(name)])

    def coefficient_rows(self):
        rows = []
        for name, est, se in zip(self.names, self.coefficients, self.standard_errors):
            t = est / se if se > 0 else float("nan")
            rows.append((name, float(est), float(se), float(t)))
        return rows


def robust_covariance(x, residuals, bread) -> np.ndarray:
    """HC0 sandwich (X'X)^-1 X' diag(u^2) X (X'X)^-1.

    Given a stack of fits, X of shape (R, n, p), residuals (R, n) and breads
    (R, p, p), returns one covariance per fit. Entries that are not finite
    give a covariance that is not finite, which `pooled_fit` refuses.
    """
    x, u, bread = (np.asarray(a, dtype=float) for a in (x, residuals, bread))
    if x.ndim < 2 or x.shape[:-1] != u.shape or bread.shape != (*x.shape[:-2], x.shape[-1], x.shape[-1]):
        raise ValueError("dimension mismatch between design, residuals and bread")
    xu = x * u[..., None]
    meat = xu.mT @ xu
    cov = bread @ meat @ bread
    return 0.5 * (cov + cov.mT)


def sum_of_squares(u):
    """u'u over the last axis: a residual sum of squares, one per fit for a stack."""
    return np.vecdot(u, u)


def standard_errors(cov) -> np.ndarray:
    """Square roots of the covariance diagonal (negative rounding clipped to 0); stacks too."""
    return np.sqrt(np.clip(np.diagonal(cov, axis1=-2, axis2=-1), 0.0, None))


def _columns(data, rows, column_names):
    """The named columns at `rows`: the panel's own arrays when every row is used."""
    if rows.size == data.n_rows:
        return {name: data.column(name) for name in column_names}
    return {name: data.column(name)[rows] for name in column_names}


def design_matrix(columns, column_names, intercept, shape):
    """The design with an optional intercept, then `column_names` in order, and its names.

    `columns` maps each name to an array of `shape`, the rows (n,) of one fit
    or (R, n) for a stack of R fits; the design has a column axis appended.
    """
    cols = [np.ones(shape)] if intercept else []
    cols += [columns[name] for name in column_names]
    names = (INTERCEPT_NAME,) * bool(intercept) + tuple(column_names)
    x = np.stack(cols, axis=-1) if cols else np.empty((*shape, 0))
    return x, names


def _finish(spec, fit, n, lead, fixed_effects=None):
    """The `EstimateResult` of a `PooledFit` on n rows; TSS = the RSS on its `lead` first columns."""
    rss = float(fit.rss)
    tss = float(sum_of_squares(fit.qty[lead:]))
    df = fit.df_residual
    r2 = 1.0 - rss / tss if tss > 0 else float("nan")
    adj = 1.0 - (1.0 - r2) * (n - 1 if lead else n) / df if tss > 0 else float("nan")
    return EstimateResult(
        names=fit.names,
        coefficients=fit.coefficients,
        standard_errors=standard_errors(fit.covariance),
        covariance_matrix=fit.covariance,
        n_observations=n,
        df_residual=df,
        r_squared=r2,
        adjusted_r_squared=adj,
        residual_std_error=math.sqrt(rss / df),
        estimator_tag=spec.estimator,
        covariance_tag=spec.covariance,
        fixed_effects=fixed_effects,
    )


def first_stage(spec: ModelSpec, columns):
    """The 2SLS first stage of `spec` on complete `columns`, (n,) for one panel or (R, n) for a
    stack: Z (intercept, exogenous regressors, instruments) and the one factor of [X_endog..., y, 1]
    on Z, which holds the second stage, F and J. Raises InsufficientObservationsError unless n
    exceeds Z's columns, and RankDeficientError when one panel's Z is not full rank."""
    shape = columns[spec.dependent].shape
    z, names = design_matrix(columns, (*spec.exogenous_regressors, *spec.instruments),
                             spec.include_intercept, shape)
    if shape[-1] <= z.shape[-1]:
        raise InsufficientObservationsError(f"{shape[-1]} rows cannot support the unrestricted "
                                            "first stage")
    targets = [columns[name] for name in (*spec.endogenous_regressors, spec.dependent)]
    return z, solve_least_squares(z, np.stack([*targets, np.ones(shape)], axis=-1), names)


def tsls_coordinates(spec: ModelSpec, first):
    """Z, the regressors [W X] and y in the coordinates of the 2SLS factor `first`, which spans them
    all, on len(first.qty) rows: Z is its R over zeros, W Z's leading columns, X and y targets."""
    k = len(spec.endogenous_regressors)
    z = np.zeros((*first.qty.shape[:-1], first.r.shape[-1]))
    z[..., :first.r.shape[-2], :] = first.r
    w = z[..., :len(spec.regressors) - k + spec.include_intercept]
    return z, np.concatenate([w, first.qty[..., :k]], axis=-1), first.qty[..., k]


class PooledFit(NamedTuple):
    """What `pooled_fit` returns, nothing of length n. For one panel `certified` and `finite` are
    True; for a stack they are (R,) masks: `certified` of markets whose every fit is full rank,
    `finite` of those whose residual sum of squares `rss` and covariance are finite. `qty` is y in
    the coordinates of the fit's factor: the second stage's Q'y, or y's column of a 2SLS fit's
    `first_stage`, its one factor, which is None for OLS."""

    names: tuple
    coefficients: np.ndarray
    covariance: np.ndarray
    rss: float | np.ndarray
    df_residual: int
    certified: bool | np.ndarray
    finite: bool | np.ndarray
    qty: np.ndarray
    first_stage: LeastSquaresSolution | None


def pooled_fit(spec: ModelSpec, columns, absorbed) -> PooledFit:
    """OLS, or 2SLS for a `tsls` spec, on complete `columns` of shape (n,) for one panel or
    (R, n) for a stack of R markets, from which `absorb` took `absorbed` levels.

    The p of the row check and of df_residual = n - p counts the absorbed levels. 2SLS fits [R_ZW |
    Q_Z'X] on Q_Z'y, Z's rows of its `first_stage` factor, which also gives the RSS of its residuals
    (with the actual columns). The covariance is classical, s^2 (X'X)^-1 with s^2 = RSS /
    df_residual, or the HC0 sandwich: the fitted design as the bread, one n-row pass.

    Raises EstimationError when one panel's residual sum of squares or
    covariance overflows.
    """
    y = columns[spec.dependent]
    n = y.shape[-1]
    x, names = design_matrix(columns, spec.regressors, spec.include_intercept, y.shape)
    first, x_fit, design, target = None, x, x, y
    if spec.estimator == "tsls":
        z, first = first_stage(spec, columns)
        _, x_coords, y_coords = tsls_coordinates(spec, first)
        design, target = x_coords[..., :z.shape[-1], :], y_coords[..., :z.shape[-1]]
        if spec.covariance == "robust_hc0":
            k = len(spec.endogenous_regressors)
            x_fit = np.concatenate([x[..., :len(names) - k], z @ first.coefficients[..., :k]], -1)
    p = x.shape[-1] + absorbed
    if n <= p:
        raise InsufficientObservationsError(f"{n} rows cannot support {p} coefficients")
    sol = solve_least_squares(design, target, names)
    with np.errstate(over="ignore", invalid="ignore"):
        if first is None:
            qty, rss = sol.qty, sum_of_squares(sol.qty[..., x.shape[-1]:])
        else:
            qty, rss = y_coords, sum_of_squares(y_coords - np.matvec(x_coords, sol.coefficients))
        if spec.covariance == "robust_hc0":
            cov = robust_covariance(x_fit, y - np.matvec(x, sol.coefficients), sol.xtx_inverse)
        else:
            cov = (rss / (n - p))[..., None, None] * sol.xtx_inverse
    finite = np.isfinite(rss) & np.isfinite(cov).all(axis=(-2, -1))
    if y.ndim == 1 and not finite:
        what = "coefficient covariance" if np.isfinite(rss) else "residual sum of squares"
        raise EstimationError(f"the fit overflows: its {what} is not finite; rescale the "
                              "dependent or the regressors")
    certified = sol.certified if first is None else first.certified & sol.certified
    return PooledFit(names, sol.coefficients, cov, rss, n - p, certified, finite, qty, first)


def _estimate_pooled(spec: ModelSpec, data: "PanelDataset", estimator) -> EstimateResult:
    if spec.estimator != estimator:
        raise ValueError(f"spec.estimator is {spec.estimator!r}, expected {estimator!r}")
    rows = np.flatnonzero(data.complete_rows(spec.required_columns()))
    columns = _columns(data, rows, spec.required_columns())
    return _finish(spec, pooled_fit(spec, columns, 0), rows.size, int(spec.include_intercept))


def estimate_ols(spec: ModelSpec, data: "PanelDataset") -> EstimateResult:
    """Least-squares fit of the dependent on intercept, exogenous and endogenous columns.

    Endogenous regressors are treated as exogenous here; this is the
    (inconsistent under price endogeneity) baseline the other estimators are
    compared against.
    """
    return _estimate_pooled(spec, data, "ols")


def _demean(c, codes, counts):
    """`c` less its mean within each group of `codes`: one column (n,) or a stack (R, n)."""
    stack = c.reshape(-1, codes.size)
    # Row r counts group g as r * G + g, so that one bincount sums every row of the stack.
    sums = np.bincount((np.arange(len(stack))[:, None] * counts.size + codes).reshape(-1),
                       weights=stack.reshape(-1))
    means = (sums.reshape(len(stack), counts.size) / counts)[:, codes]
    return np.subtract(stack, means, out=means).reshape(c.shape)


def absorb(spec: ModelSpec, columns, units, periods):
    """The OLS spec, the columns and the count of absorbed levels that `pooled_fit` fits, and
    which of the markets they hold are finite.

    A `two_way_fe` spec absorbs the units: each of its columns is demeaned
    within units, and the periods after the first enter, demeaned the same
    way, as dummies `period[...]` ahead of the exogenous regressors. By
    Frisch-Waugh-Lovell this is the LSDV fit, with the absorbed unit levels
    still counted as coefficients. A regressor constant within units leaves
    only rounding noise, at most `DEFAULT_RANK_TOL` of its norm; it comes
    back as zeros, so that the solver sees the rank loss. `columns` are
    complete, (n,) for one panel or (R, n) for markets that share the row
    labels `units` and `periods`. A unit sum beyond the float range leaves a
    market whose demeaned columns are not finite: it is marked so, and the
    solver leaves it uncertified in a stack. Any other spec comes back as it
    is, with nothing absorbed.
    """
    shape = columns[spec.dependent].shape
    if spec.estimator != "two_way_fe":
        return spec, columns, 0, np.ones(shape[:-1], dtype=bool)
    _, unit_codes = np.unique(units, return_inverse=True)
    period_levels, period_codes = np.unique(periods, return_inverse=True)
    counts = np.bincount(unit_codes)
    later = period_codes == np.arange(1, period_levels.size)[:, None]
    within = {f"period[{v}]": np.broadcast_to(d, shape)
              for v, d in zip(period_levels[1:].tolist(), _demean(later, unit_codes, counts))}
    dummies = tuple(within)
    within[spec.dependent] = _demean(columns[spec.dependent], unit_codes, counts)
    for name in spec.regressors:
        c, w = columns[name], _demean(columns[name], unit_codes, counts)
        # Both norms over c's largest entry, so that no square of a huge regressor overflows.
        scale = np.maximum(np.abs(c).max(axis=-1, keepdims=True), np.finfo(float).tiny)
        noise = DEFAULT_RANK_TOL * np.linalg.norm(c / scale, axis=-1, keepdims=True)
        within[name] = np.where(np.linalg.norm(w / scale, axis=-1, keepdims=True) <= noise, 0.0, w)
    finite = np.logical_and.reduce([np.isfinite(within[name]).all(axis=-1)
                                    for name in (spec.dependent, *spec.regressors)])
    ols = replace(spec, exogenous_regressors=(*dummies, *spec.exogenous_regressors), estimator="ols")
    return ols, within, counts.size, finite


def _most_absorbed_slope(design, m, slope_names):
    """The slope best explained by the other columns of `design` (the first m are dummies).

    Once the dummies alone are known to have full rank, every linear
    dependence in `design` involves a slope, and each slope in it is
    explained exactly by the other columns. Each slope is scaled to a largest entry of 1, which
    leaves its share as it is and keeps the norms of a huge regressor finite.
    """
    shares = []
    for j in range(len(slope_names)):
        col = design[:, m + j] / np.abs(design[:, m + j]).max()
        others = np.delete(design, m + j, axis=1)
        resid = col - others @ np.linalg.lstsq(others, col, rcond=None)[0]
        shares.append(np.linalg.norm(resid) / np.linalg.norm(col))
    return slope_names[int(np.argmin(shares))]


def estimate_two_way_fe(spec: ModelSpec, data: "PanelDataset") -> EstimateResult:
    """Two-way fixed effects: `pooled_fit` on the columns that `absorb` transforms.

    This is the LSDV fit without its n x (J + T) dummy matrix: the same slopes,
    residuals and covariances, and df_residual = n - k - (J + T - 1). A refused
    fit is named: a regressor constant within units, a panel that is not
    connected, or the regressor the effects absorb. Unit effects carry the level
    and the first period is the base category. The R-squared is the within
    R-squared, against the variation left after projecting out both effects.
    """
    if spec.estimator != "two_way_fe":
        raise ValueError(f"spec.estimator is {spec.estimator!r}, expected 'two_way_fe'")
    rows = np.flatnonzero(data.complete_rows(spec.required_columns()))
    unit_used, unit_codes = np.unique(data.unit_codes[rows], return_inverse=True)
    period_used, period_codes = np.unique(data.period_codes[rows], return_inverse=True)
    unit_levels, period_levels = data.unit_levels[unit_used], data.period_levels[period_used]
    if unit_levels.size < 2 or period_levels.size < 2:
        raise InsufficientObservationsError("two-way fixed effects need >= 2 units and >= 2 periods")

    columns = _columns(data, rows, spec.required_columns())
    ols, within, absorbed, finite = absorb(spec, columns, unit_codes, period_levels[period_codes])
    if not finite:
        raise EstimationError("the fit overflows: a column's sum within a unit is not finite; "
                              "rescale the dependent or the regressors")
    m = period_levels.size - 1
    dummy_names, slope_names = ols.regressors[:m], ols.regressors[m:]
    try:
        fit = pooled_fit(ols, within, absorbed)
    except RankDeficientError:
        for name in slope_names:
            if not within[name].any():
                raise CollinearWithFixedEffectsError(
                    name, f"regressor {name!r} is constant within each unit")
        # The demeaned dummies lose rank exactly when the panel is disconnected.
        try:
            solve_least_squares(design_matrix(within, dummy_names, False, rows.shape)[0],
                                within[spec.dependent])
        except RankDeficientError as exc:
            raise CollinearWithFixedEffectsError(
                dummy_names[exc.columns[0]],
                "unit and period effects are not separately identified: the panel is not connected",
            ) from None
        name = _most_absorbed_slope(design_matrix(within, ols.regressors, False, rows.shape)[0],
                                    m, slope_names)
        raise CollinearWithFixedEffectsError(
            name, f"regressor {name!r} is collinear with the fixed effects and the other regressors"
        )

    beta = fit.coefficients[m:]
    y = columns[spec.dependent]
    period_fx = np.concatenate([[0.0], fit.coefficients[:m]])
    slope_fit = design_matrix(columns, spec.regressors, False, rows.shape)[0] @ beta
    unit_sums = np.bincount(unit_codes, weights=y - slope_fit - period_fx[period_codes])
    unit_fx = unit_sums / np.bincount(unit_codes)
    # The slopes' covariance is a copy: a view would keep every period dummy's covariance.
    slopes = fit._replace(names=slope_names, coefficients=beta,
                          covariance=fit.covariance[m:, m:].copy())
    return _finish(spec, slopes, rows.size, m, ((unit_levels, unit_fx), (period_levels, period_fx)))


def estimate_tsls(spec: ModelSpec, data: "PanelDataset") -> EstimateResult:
    """Two-stage least squares with cost-shifter style instruments.

    Stage 1 regresses each endogenous column on the intercept, exogenous
    regressors and instruments; stage 2 replaces endogenous columns by their
    fitted values. Residuals are y - X b with the ACTUAL endogenous columns,
    and feed both the classical and the HC0 covariance (HC0 is the default,
    with the stage-2 design as the bread).
    """
    return _estimate_pooled(spec, data, "tsls")


def estimate(spec: ModelSpec, data: "PanelDataset") -> EstimateResult:
    """Dispatch on spec.estimator."""
    if spec.estimator == "ols":
        return estimate_ols(spec, data)
    if spec.estimator == "two_way_fe":
        return estimate_two_way_fe(spec, data)
    return estimate_tsls(spec, data)
