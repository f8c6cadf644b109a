"""OLS, 2SLS, first-stage F and Sargan J against designs built here and `np.linalg.lstsq`.

The oracle shares no code with the package: it selects complete rows itself,
stacks its own designs and fits them by SVD. One panel goes through
`estimate_ols`, `estimate_tsls`, `first_stage_f` and `sargan_j`; a stack of
markets goes through the Monte Carlo's stacked path (`simulate._fit_stack`).
The scale properties check that rescaling a regressor or the dependent moves
coefficients and standard errors as it must and leaves F and J alone.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand import simulate
from logitdemand.dataio import PanelDataset
from logitdemand.diagnostics import first_stage_f, sargan_j
from logitdemand.estimators import ModelSpec, estimate_ols, estimate_tsls

TOL = 1e-9


def _close(a, b, floor=0.0):
    """Within TOL of the largest entry of `b` (or of `floor`, if larger).

    Test statistics take a floor of 1: an R^2 = 1 - RSS/TSS near 0 carries
    absolute rounding of a few eps, which is large relative to a J near 0.
    """
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(np.subtract(a, b)), initial=0.0) <= TOL * np.max(np.abs(b), initial=floor)


def _design(columns, names, intercept):
    n = len(next(iter(columns.values())))
    cols = [np.ones(n)] * intercept + [columns[name] for name in names]
    return np.column_stack(cols) if cols else np.empty((n, 0))


def _lstsq(x, y):
    beta = np.linalg.lstsq(x, y, rcond=None)[0] if x.shape[1] else np.zeros(0)
    return beta, y - x @ beta


def _bread(x):
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    return (vt.T / s**2) @ vt


def _covariance(kind, x, u, df):
    bread = _bread(x)
    if kind == "classical":
        return (u @ u / df) * bread
    xu = x * u[:, None]
    return bread @ (xu.T @ xu) @ bread


def _oracle_fit(spec, columns):
    """(coefficients, SEs, df, residuals) of the spec's OLS or 2SLS on complete `columns`."""
    y = columns[spec.dependent]
    x = _design(columns, spec.regressors, spec.include_intercept)
    x_fit = x
    if spec.estimator == "tsls":
        z = _design(columns, (*spec.exogenous_regressors, *spec.instruments), spec.include_intercept)
        fitted = [z @ _lstsq(z, columns[name])[0] for name in spec.endogenous_regressors]
        x_fit = np.column_stack([_design(columns, spec.exogenous_regressors, spec.include_intercept),
                                 *fitted])
    beta = _lstsq(x_fit, y)[0]
    u = y - x @ beta
    df = len(y) - x.shape[1]
    return beta, np.sqrt(np.diag(_covariance(spec.covariance, x_fit, u, df))), df, u


def _oracle_f(spec, columns):
    """(F, unrestricted df, restricted df) of the instruments in the first stage."""
    endog = columns[spec.endogenous_regressors[0]]
    exog, intercept = spec.exogenous_regressors, spec.include_intercept
    xu = _design(columns, (*exog, *spec.instruments), intercept)
    xr = _design(columns, exog, intercept)
    rss_u, rss_r = (np.sum(_lstsq(x, endog)[1] ** 2) for x in (xu, xr))
    df_u, df_r = len(endog) - xu.shape[1], len(endog) - xr.shape[1]
    return ((rss_r - rss_u) / len(spec.instruments)) / (rss_u / df_u), df_u, df_r


def _oracle_j(spec, columns, u):
    """(J, overall F, instrument-block F, n R^2) of the regression of the 2SLS residuals `u`."""
    m, n = len(spec.instruments), len(u)
    full = _design(columns, (*spec.instruments, *spec.exogenous_regressors), True)
    rss_full = np.sum(_lstsq(full, u)[1] ** 2)
    rss_exog = np.sum(_lstsq(_design(columns, spec.exogenous_regressors, True), u)[1] ** 2)
    df = n - full.shape[1]
    r2 = 1.0 - rss_full / np.sum((u - u.mean()) ** 2)
    overall = (r2 / (full.shape[1] - 1)) / ((1.0 - r2) / df)
    return m * overall, overall, ((rss_exog - rss_full) / m) / (rss_full / df), n * r2


def _market(rng, shape, k, m):
    """y, exogenous x1..xk, an endogenous price and instruments z1..zm, each of `shape`."""
    cols = {f"x{i + 1}": rng.normal(size=shape) for i in range(k)}
    cols.update({f"z{i + 1}": rng.normal(size=shape) for i in range(m)})
    xi = rng.normal(size=shape)
    cols["price"] = sum(cols[f"z{i + 1}"] for i in range(m)) + 0.5 * xi + rng.normal(size=shape)
    cols["y"] = (0.5 + sum(0.8 * cols[f"x{i + 1}"] for i in range(k)) - 1.2 * cols["price"]
                 + xi + 0.3 * rng.normal(size=shape))
    return cols


def _spec(estimator, k, m, intercept, covariance):
    return ModelSpec(dependent="y", exogenous_regressors=tuple(f"x{i + 1}" for i in range(k)),
                     endogenous_regressors=("price",),
                     instruments=tuple(f"z{i + 1}" for i in range(m)) if estimator == "tsls" else (),
                     include_intercept=intercept, estimator=estimator, covariance=covariance)


def _panel(columns):
    n = len(columns["y"])
    return PanelDataset(units=tuple(f"u{i:03d}" for i in range(n)), periods=(2001,) * n,
                        columns=columns, column_kinds={})


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(12, 60),
    "k": st.integers(0, 2),
    "m": st.integers(1, 3),
    "intercept": st.booleans(),
    "covariance": st.sampled_from(["classical", "robust_hc0"]),
    # Up to four missing cells anywhere, so at least 8 complete rows for at most 6 columns.
    "missing": st.lists(st.tuples(st.integers(0, 59), st.integers(0, 6)), max_size=4),
})


def _panel_case(case):
    rng = np.random.default_rng(case["seed"])
    columns = _market(rng, case["n"], case["k"], case["m"])
    names = sorted(columns)
    for row, col in case["missing"]:
        columns[names[col % len(names)]][row % case["n"]] = np.nan
    return columns


def _complete(columns, names):
    keep = np.all([~np.isnan(columns[name]) for name in names], axis=0)
    return {name: columns[name][keep] for name in names}


@settings(max_examples=150, deadline=None)
@given(cases)
def test_single_panel_fits_and_tests_match_the_lstsq_oracle(case):
    columns = _panel_case(case)
    data = _panel(columns)
    k, m, intercept, covariance = case["k"], case["m"], case["intercept"], case["covariance"]
    for estimator in ("ols", "tsls"):
        spec = _spec(estimator, k, m, intercept, covariance)
        result = (estimate_ols if estimator == "ols" else estimate_tsls)(spec, data)
        used = _complete(columns, spec.required_columns())
        beta, se, df, u = _oracle_fit(spec, used)
        assert result.n_observations == len(used["y"])
        assert result.df_residual == df
        assert _close(result.coefficients, beta)
        assert _close(result.standard_errors, se)

    spec = _spec("tsls", k, m, intercept, covariance)
    used = _complete(columns, spec.required_columns())
    f, df_u, df_r = _oracle_f(spec, used)
    report = first_stage_f(spec, data)
    assert (report.df_numerator, report.unrestricted_df, report.df_denominator,
            report.restricted_df) == (m, df_u, df_u, df_r)
    assert _close(report.f_statistic, f, 1.0)
    if m > 1:
        j, overall, block, nr2 = _oracle_j(spec, used, _oracle_fit(spec, used)[3])
        j_report = sargan_j(estimate_tsls(spec, data), spec, data)
        assert (j_report.m, j_report.k, j_report.df) == (m, 1, m - 1)
        for got, want in ((j_report.j_statistic, j), (j_report.residual_regression_f, overall),
                          (j_report.instrument_block_f, block), (j_report.n_r_squared, nr2)):
            assert _close(got, want, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(12, 40), st.integers(0, 2),
       st.integers(1, 3), st.booleans(), st.sampled_from(["classical", "robust_hc0"]))
def test_stacked_fits_and_tests_match_the_lstsq_oracle(seed, stack, n, k, m, intercept, covariance):
    columns = _market(np.random.default_rng(seed), (stack, n), k, m)
    for estimator in ("ols", "tsls"):
        spec = _spec(estimator, k, m, intercept, covariance)
        records = simulate._fit_stack(spec, columns, n_periods=1)
        for r, record in enumerate(records):
            market = {name: col[r] for name, col in columns.items()}
            beta, se, _, u = _oracle_fit(spec, market)
            assert _close(record.coefficients, beta)
            assert _close(record.standard_errors, se)
            # The Monte Carlo reports F for a spec with instruments, and J when it is over-identified.
            assert (record.first_stage_f is None) == (estimator == "ols")
            if record.first_stage_f is not None:
                assert _close(record.first_stage_f, _oracle_f(spec, market)[0], 1.0)
            assert (record.sargan_j is None) == (estimator == "ols" or m == 1)
            if record.sargan_j is not None:
                assert _close(record.sargan_j, _oracle_j(spec, market, u)[0], 1.0)


def _scaled(columns, name, c):
    return {**columns, name: c * columns[name]}


def _fits(spec, columns):
    """Coefficients, SEs, F and (for over-identified 2SLS) J on one panel and on a stack."""
    data = _panel({name: col[0] for name, col in columns.items()})
    result = (estimate_ols if spec.estimator == "ols" else estimate_tsls)(spec, data)
    f_spec = dataclasses.replace(spec, estimator="tsls", instruments=("z1", "z2"))
    tests = [first_stage_f(f_spec, data).f_statistic]
    if spec.estimator == "tsls":
        tests.append(sargan_j(result, spec, data).j_statistic)
    stack = simulate._fit_stack(spec, columns, n_periods=1)
    return ([result.coefficients, *(r.coefficients for r in stack)],
            [result.standard_errors, *(r.standard_errors for r in stack)],
            tests + [t for r in stack for t in (r.first_stage_f, r.sargan_j) if t is not None])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(15, 40), st.sampled_from(["ols", "tsls"]),
       st.booleans(), st.sampled_from(["classical", "robust_hc0"]),
       st.sampled_from(["x1", "price", "y"]), st.sampled_from([-2.5, 1e-3, 0.25, 7.0, 1e4]))
def test_rescaling_a_regressor_or_the_dependent_rescales_coefficients_and_ses(
        seed, n, estimator, intercept, covariance, name, c):
    columns = _market(np.random.default_rng(seed), (3, n), 1, 2)
    spec = _spec(estimator, 1, 2, intercept, covariance)
    beta, se, tests = _fits(spec, columns)
    beta_c, se_c, tests_c = _fits(spec, _scaled(columns, name, c))
    # y scales every coefficient and SE by c; a regressor scales its own by 1 / c.
    factor = np.full(len(beta[0]), float(c)) if name == "y" else np.where(
        np.array(spec.regressors if not intercept else ("const", *spec.regressors)) == name,
        1.0 / c, 1.0)
    for got, want in zip(beta_c, beta):
        assert _close(got, want * factor)
    for got, want in zip(se_c, se):
        assert _close(got, want * np.abs(factor))
    assert _close(tests_c, tests, 1.0)
