"""The one-factor 2SLS against the path it replaced, kept here as the reference.

`estimators.first_stage` factors [Z | X_endog y 1] once; `pooled_fit` fits the
second stage and `diagnostics.sargan_stats` the Sargan regression in that
factor's coordinates, over its few rows. The reference below is the earlier
path: one first-stage solve per endogenous regressor, the second stage on the
n-row fitted design [W X-hat], and the Sargan regression of the n-row
residuals on [1, exogenous, instruments]. One panel must raise what the
reference raises (class, columns and message), a stack must certify the same
markets, and every number must agree within 1e-10 of the largest entry of its
kind: coefficients, standard errors, RSS, R^2, first-stage F, J, its p-value,
the overall F and the block F.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand.dataio import PanelDataset
from logitdemand.diagnostics import (chi_square_upper_tail, f_statistic, first_stage_f,
                                     first_stage_stats, sargan_j, sargan_stats)
from logitdemand.errors import InsufficientObservationsError, LogitDemandError
from logitdemand.estimators import (ModelSpec, design_matrix, estimate_tsls, pooled_fit,
                                    robust_covariance, standard_errors, sum_of_squares)
from logitdemand.matrix import solve_least_squares

TOL = 1e-10


# --- the reference: the n-row path ----------------------------------------------


def _first_stage(spec, columns):
    """Z and one solve of Z per endogenous regressor."""
    shape = columns[spec.dependent].shape
    z, names = design_matrix(columns, (*spec.exogenous_regressors, *spec.instruments),
                             spec.include_intercept, shape)
    if shape[-1] <= z.shape[-1]:
        raise InsufficientObservationsError(f"{shape[-1]} rows cannot support the unrestricted "
                                            "first stage")
    return z, [solve_least_squares(z, columns[name], names) for name in spec.endogenous_regressors]


def _tsls_fit(spec, columns):
    """The second stage on the n-row fitted design: (coefficients, covariance, residuals, RSS,
    TSS, certified, the first stage's nested RSS per endogenous regressor)."""
    y = columns[spec.dependent]
    n = y.shape[-1]
    x, names = design_matrix(columns, spec.regressors, spec.include_intercept, y.shape)
    z, first = _first_stage(spec, columns)
    certified = True
    fitted = []
    for endog in first:
        certified &= endog.certified
        fitted.append(np.matvec(z, endog.coefficients)[..., None])
    x_fit = np.concatenate([x[..., :x.shape[-1] - len(first)], *fitted], axis=-1)
    p = x_fit.shape[-1]
    if n <= p:
        raise InsufficientObservationsError(f"{n} rows cannot support {p} coefficients")
    sol = solve_least_squares(x_fit, y, names)
    residuals = y - np.matvec(x, sol.coefficients)
    rss = sum_of_squares(residuals)
    if spec.covariance == "robust_hc0":
        cov = robust_covariance(x_fit, residuals, sol.xtx_inverse)
    else:
        cov = (rss / (n - p))[..., None, None] * sol.xtx_inverse
    tss = sum_of_squares(sol.qty[..., int(spec.include_intercept):])
    return (sol.coefficients, cov, residuals, rss, tss, certified & sol.certified,
            [endog.nested_rss for endog in first])


def _sargan(spec, columns, residuals):
    """(J, p-value, overall F, block F, R^2, certified) of the n-row residual regression."""
    m, n = len(spec.instruments), residuals.shape[-1]
    x, names = design_matrix(columns, (*spec.exogenous_regressors, *spec.instruments), True,
                             residuals.shape)
    if n <= x.shape[-1]:
        raise InsufficientObservationsError(f"{n} rows cannot support the residual regression")
    sol = solve_least_squares(x, residuals, names)
    rss, df2, q = sol.nested_rss, n - x.shape[-1], x.shape[-1] - 1
    tss, rss_exog, rss_full = rss[..., 1], rss[..., -1 - m], rss[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(tss > 0, 1.0 - rss_full / tss, 0.0)
        overall_f = np.where(tss > 0, np.maximum((r2 / q) / ((1.0 - r2) / df2), 0.0), 0.0)
    j = m * overall_f
    return (j, chi_square_upper_tail(j, m - len(spec.endogenous_regressors)), overall_f,
            f_statistic(rss_exog, rss_full, m, df2), r2, sol.certified)


# --- drawn designs ------------------------------------------------------------------


@st.composite
def tsls_cases(draw):
    """(spec, columns (R, n), case): k in {1, 2} endogenous regressors, m from k to 3
    instruments, 0-2 exogenous regressors, with or without an intercept, classical or HC0.

    In the `duplicate` case the last instrument is twice the first, so that Z is rank deficient
    (an exact copy would tie, and rounding would pick the twin that is named); in the
    `irrelevant` case the last endogenous regressor is 2 w plus noise orthogonal to Z, for w the
    last column of W, so that its fitted column is 2 w and [W X-hat] is rank deficient. Only
    market 0 of a stack is special."""
    case = draw(st.sampled_from(["regular", "regular", "duplicate", "irrelevant"]))
    k = draw(st.integers(1, 2))
    m = draw(st.integers(max(k, 2 if case == "duplicate" else 1), 3))
    intercept = draw(st.booleans())
    # Without W the `irrelevant` design would be rounding noise alone, full rank on its own scale.
    n_exog = draw(st.integers(int(case == "irrelevant" and not intercept), 2))
    spec = ModelSpec(dependent="y", exogenous_regressors=tuple(f"x{i}" for i in range(n_exog)),
                     endogenous_regressors=tuple(f"p{i}" for i in range(k)),
                     instruments=tuple(f"z{i}" for i in range(m)), include_intercept=intercept,
                     estimator="tsls",
                     covariance=draw(st.sampled_from(["classical", "robust_hc0"])))
    pz = intercept + n_exog + m
    n = draw(st.integers(pz + 1, pz + 30))
    stack = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    cols = {name: rng.normal(size=(stack, n)) for name in (*spec.exogenous_regressors,
                                                            *spec.instruments)}
    if case == "duplicate":
        cols[spec.instruments[-1]][0] = 2.0 * cols[spec.instruments[0]][0]
    z, _ = design_matrix(cols, (*spec.exogenous_regressors, *spec.instruments), intercept,
                         (stack, n))
    xi = rng.normal(size=(stack, n))
    y = 1.0 * intercept + rng.normal(size=(stack, n)) + xi
    for i, name in enumerate(spec.endogenous_regressors):
        cols[name] = np.matvec(z, rng.normal(size=z.shape[-1])) + 0.5 * xi + rng.normal(size=(stack, n))
        if case == "irrelevant" and i == k - 1:
            noise = rng.normal(size=n)
            noise -= z[0] @ np.linalg.lstsq(z[0], noise, rcond=None)[0]
            cols[name][0] = 2.0 * z[0, :, intercept + n_exog - 1] + noise
        y = y + rng.uniform(-2, 2) * cols[name]
    for name in spec.exogenous_regressors:
        y = y + rng.uniform(-2, 2) * cols[name]
    cols["y"] = y
    return spec, cols, case


def _close(a, b, scale=None):
    """Within TOL of the largest |b| (or of `scale`); entries that are not finite must match."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    finite = np.isfinite(b)
    if not np.array_equal(np.isfinite(a), finite) or not np.array_equal(a[~finite], b[~finite]):
        return False
    scale = np.max(np.abs(b[finite]), initial=0.0) if scale is None else scale
    return np.max(np.abs(a[finite] - b[finite]), initial=0.0) <= TOL * scale


def _panel(columns):
    """One market's columns as a panel of one period, one unit per row."""
    n = len(columns["y"])
    return PanelDataset.from_rows(units=[f"u{i:02d}" for i in range(n)], periods=[2001] * n,
                                  columns=columns)


def _outcome(call):
    """What `call` returns, or the class, columns and message of the package error it raises."""
    try:
        return call(), None
    except LogitDemandError as exc:
        return None, (type(exc), getattr(exc, "columns", None), str(exc))


# --- properties ----------------------------------------------------------------------


@settings(max_examples=150)
@given(tsls_cases())
def test_a_stack_matches_the_reference(case):
    spec, columns, _ = case
    n = columns["y"].shape[-1]
    fit, refused = _outcome(lambda: pooled_fit(spec, columns, 0))
    reference, refused_too = _outcome(lambda: _tsls_fit(spec, columns))
    assert refused == refused_too
    if refused:
        return
    coefficients, cov, residuals, rss, tss, certified, first_rss = reference
    assert np.array_equal(fit.certified, certified)
    ok = fit.certified
    if not ok.any():
        return
    assert _close(fit.coefficients[ok], coefficients[ok])
    assert _close(standard_errors(fit.covariance[ok]), standard_errors(cov[ok]))
    assert _close(fit.rss[ok], rss[ok])
    lead = int(spec.include_intercept)
    assert _close(1.0 - fit.rss[ok] / sum_of_squares(fit.qty[ok, lead:]), 1.0 - rss[ok] / tss[ok])
    m = len(spec.instruments)
    for j, want in enumerate(first_rss):
        got = fit.first_stage.nested_rss[:, j]
        assert _close(first_stage_stats(got[ok], m, n)[0], first_stage_stats(want[ok], m, n)[0])
    if m > len(spec.endogenous_regressors):
        stats, refused = _outcome(lambda: sargan_stats(spec, fit.first_stage, fit.coefficients, n))
        want, refused_too = _outcome(lambda: _sargan(spec, columns, residuals))
        assert refused == refused_too
        if refused:
            return
        assert np.array_equal(stats[-1][ok], want[-1][ok])
        ok = ok & want[-1]
        for got_stat, want_stat in zip(stats[:5], want[:5]):
            assert _close(got_stat[ok], want_stat[ok])


@settings(max_examples=150)
@given(tsls_cases())
def test_one_panel_matches_the_reference(case):
    spec, columns, _ = case
    n = columns["y"].shape[-1]
    one = {name: values[0] for name, values in columns.items()}
    data = _panel(one)
    result, refused = _outcome(lambda: estimate_tsls(spec, data))
    reference, refused_too = _outcome(lambda: _tsls_fit(spec, one))
    assert refused == refused_too
    if refused:
        return
    coefficients, cov, residuals, rss, tss, _, first_rss = reference
    df = result.df_residual
    assert _close(result.coefficients, coefficients)
    assert _close(result.standard_errors, standard_errors(cov))
    assert _close(result.residual_std_error**2 * df, rss)
    assert _close(result.r_squared, 1.0 - rss / tss)
    m, k = len(spec.instruments), len(spec.endogenous_regressors)
    if k == 1:
        assert _close(first_stage_f(spec, data).f_statistic,
                      first_stage_stats(first_rss[0], m, n)[0])
    if m > k:
        report, refused = _outcome(lambda: sargan_j(result, spec, data))
        want, refused_too = _outcome(lambda: _sargan(spec, one, residuals))
        assert refused == refused_too
        if refused:
            return
        got = (report.j_statistic, report.p_value, report.residual_regression_f,
               report.instrument_block_f, report.n_r_squared / n)
        for got_stat, want_stat in zip(got, want[:5]):
            assert _close(got_stat, want_stat)


@pytest.mark.parametrize("case, error", [
    ("duplicate", "design is rank deficient in columns ['z0']"),
    ("irrelevant", "design is rank deficient in columns ['x0']"),
])
def test_rank_deficient_designs_raise_as_the_reference(case, error):
    # One endogenous regressor, one exogenous, two instruments and an intercept; the stack
    # refuses market 0 only.
    spec = ModelSpec(dependent="y", exogenous_regressors=("x0",), endogenous_regressors=("p0",),
                     instruments=("z0", "z1"), estimator="tsls")
    rng = np.random.default_rng(5)
    n = 20
    columns = {name: rng.normal(size=(3, n)) for name in ("x0", "z0", "z1", "y")}
    z = np.stack([np.ones((3, n)), columns["x0"], columns["z0"], columns["z1"]], axis=-1)
    columns["p0"] = np.matvec(z, np.array([0.5, 1.0, 1.0, -1.0])) + rng.normal(size=(3, n))
    if case == "duplicate":
        columns["z1"][0] = 2.0 * columns["z0"][0]
    else:
        noise = rng.normal(size=n)
        noise -= z[0] @ np.linalg.lstsq(z[0], noise, rcond=None)[0]
        columns["p0"][0] = 2.0 * columns["x0"][0] + noise
    fit = pooled_fit(spec, columns, 0)
    assert fit.certified.tolist() == _tsls_fit(spec, columns)[5].tolist() == [False, True, True]

    one = {name: values[0] for name, values in columns.items()}
    got = _outcome(lambda: estimate_tsls(spec, _panel(one)))[1]
    assert got == _outcome(lambda: _tsls_fit(spec, one))[1]
    assert got[2] == error
