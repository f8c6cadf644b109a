import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand.diagnostics import (
    chi_square_upper_tail,
    f_upper_tail,
    first_stage_f,
    sargan_j,
)
from logitdemand.errors import (
    ExactlyIdentifiedError,
    MultipleEndogenousError,
    RankDeficientError,
)
from logitdemand.estimators import ModelSpec, estimate, estimate_tsls, estimator_defaults


def _actual_design(spec, data):
    """The 2SLS design with the actual regressors: intercept, exogenous, then endogenous."""
    return np.column_stack([np.ones(data.n_rows), *(data.column(c) for c in spec.regressors)])


def test_f_tail_at_zero_is_one():
    assert f_upper_tail(0.0, 3, 7) == pytest.approx(1.0, abs=1e-14)


def test_f_tail_matches_t_squared_identity():
    # F(1, n) upper tail at x equals twice the Student-t(n) upper tail at sqrt(x).
    from scipy import stats

    for x, n in ((2.3, 9), (0.5, 4), (11.0, 30)):
        assert f_upper_tail(x, 1, n) == pytest.approx(2.0 * stats.t.sf(math.sqrt(x), n), abs=1e-10)


def test_f_tail_closed_form_for_two_numerator_df():
    # For df1 = 2: P(F > x) = (1 + 2x/df2)^(-df2/2).
    for x, d2 in ((8.712, 15), (1.0, 6), (0.315, 15)):
        assert f_upper_tail(x, 2, d2) == pytest.approx((1 + 2 * x / d2) ** (-d2 / 2), abs=1e-12)


def test_f_tail_reference_value():
    assert round(f_upper_tail(8.712, 2, 15), 3) == 0.003


def test_chi_square_tail_at_zero_is_one():
    assert chi_square_upper_tail(0.0, 1) == pytest.approx(1.0, abs=1e-14)


def test_chi_square_tail_closed_form_for_two_df():
    for x in (0.1, 1.7, 9.4):
        assert chi_square_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-14)


def test_chi_square_tail_via_normal_identity():
    # P(chi2_1 > z^2) = 2 (1 - Phi(z)) = erfc(z / sqrt 2).
    z = 1.959963984540054
    assert chi_square_upper_tail(z * z, 1) == pytest.approx(math.erfc(z / math.sqrt(2)), abs=1e-12)
    assert chi_square_upper_tail(3.841, 1) == pytest.approx(0.05, abs=1e-4)


def test_tails_are_monotone_and_bounded():
    grid = np.linspace(0.0, 40.0, 200)
    f_vals = [f_upper_tail(x, 3, 11) for x in grid]
    c_vals = [chi_square_upper_tail(x, 4) for x in grid]
    for vals in (f_vals, c_vals):
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert all(0.0 < v <= 1.0 for v in vals)


def test_tail_domain_errors():
    with pytest.raises(ValueError):
        f_upper_tail(-0.1, 2, 5)
    with pytest.raises(ValueError):
        f_upper_tail(1.0, 0, 5)
    with pytest.raises(ValueError):
        chi_square_upper_tail(-1.0, 1)
    with pytest.raises(ValueError):
        chi_square_upper_tail(1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        chi_square_upper_tail(1.0, 2.5)


_STATISTICS = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, math.inf, math.nan]))


def _matches_oracle(p, oracle):
    if math.isnan(oracle):
        return math.isnan(p)
    return abs(p - oracle) <= 1e-11 and (oracle <= 1e-100 or abs(p - oracle) <= 1e-10 * oracle)


@settings(max_examples=400)
@given(x=_STATISTICS, df1=st.integers(1, 20), df2=st.integers(1, 200_000), df=st.integers(1, 50))
def test_tails_match_scipy(x, df1, df2, df):
    from scipy import special, stats

    # stats.f.sf evaluates I_w(df2/2, df1/2) at w = df2 / (df2 + df1 x), which rounds near 1 for
    # a tiny F: it is then off by up to 3e-11 (x = 1e-12, df 1 and 1), and
    # special.betainc(df2/2, df1/2, w) by up to 1.5e-9. Where the tail exceeds 1/2 the oracle is
    # 1 - I_v(df1/2, df2/2) with v = 1 - w taken from x, exact to rounding
    # (special.betaincc(df1/2, df2/2, v) reads 1.0 for v = 2.4e-21).
    v = df1 * x / (df2 + df1 * x)
    lower = special.betainc(df1 / 2, df2 / 2, v)
    oracle = 1.0 - lower if lower < 0.5 else stats.f.sf(x, df1, df2)
    assert _matches_oracle(f_upper_tail(x, df1, df2), float(oracle))
    assert _matches_oracle(chi_square_upper_tail(x, df), float(stats.chi2.sf(x, df)))
    stack = chi_square_upper_tail(np.array([x, 2.0 * x]), df)
    assert all(_matches_oracle(p, o) for p, o in zip(stack, stats.chi2.sf([x, 2.0 * x], df)))


def test_first_stage_f_matches_rss_definition(simulated_market):
    spec, data, _ = simulated_market(seed=3, price_endogeneity=0.5)
    report = first_stage_f(spec, data)

    # Independent oracle via numpy lstsq on both first-stage designs.
    n = data.n_rows
    ones = np.ones(n)
    exog = [data.column(c) for c in spec.exogenous_regressors]
    instr = [data.column(c) for c in spec.instruments]
    endog = data.column("price")
    xu = np.column_stack([ones, *exog, *instr])
    xr = np.column_stack([ones, *exog])
    rss_u = float(np.sum((endog - xu @ np.linalg.lstsq(xu, endog, rcond=None)[0]) ** 2))
    rss_r = float(np.sum((endog - xr @ np.linalg.lstsq(xr, endog, rcond=None)[0]) ** 2))
    m = len(spec.instruments)
    df_u = n - xu.shape[1]
    oracle = ((rss_r - rss_u) / m) / (rss_u / df_u)
    assert report.f_statistic == pytest.approx(oracle, rel=1e-10)
    assert report.df_numerator == m
    assert report.df_denominator == df_u
    assert report.restricted_df == n - xr.shape[1]
    assert report.unrestricted_df == df_u
    assert report.p_value == pytest.approx(f_upper_tail(oracle, m, df_u), abs=1e-14)


def test_first_stage_f_of_an_exact_first_stage_is_infinite(make_panel):
    # The instrument is the price itself, so the unrestricted first stage leaves RSS 0.
    price = [1.0, 0.0, 1.0, 1.0, 2.0, 2.0]
    data = make_panel({"y": np.arange(6.0), "x1": [2.0, 0.0, 0.0, 0.0, 1.0, 2.0],
                       "price": price, "z": price})
    spec = ModelSpec(dependent="y", exogenous_regressors=("x1",), endogenous_regressors=("price",),
                     instruments=("z",), estimator="tsls")
    report = first_stage_f(spec, data)
    assert report.f_statistic == math.inf
    assert report.p_value == 0.0
    assert report.passes_rule_of_thumb


def test_first_stage_f_weak_vs_strong(simulated_market):
    weak_spec, weak_data, _ = simulated_market(seed=8, instrument_strength=0.0)
    weak = first_stage_f(weak_spec, weak_data)
    assert not weak.passes_rule_of_thumb
    assert weak.p_value > 0.01

    # First-stage R^2 around 0.9 must clear the rule of thumb comfortably.
    strong_spec, strong_data, _ = simulated_market(seed=8, instrument_strength=2.0)
    strong = first_stage_f(strong_spec, strong_data)
    assert strong.f_statistic > 10.0
    assert strong.passes_rule_of_thumb


def test_first_stage_f_invariant_to_instrument_rescaling(simulated_market):
    spec, data, _ = simulated_market(seed=15)
    scaled = data.with_column("cost2", -0.002 * data.column("cost2"))
    a = first_stage_f(spec, data)
    b = first_stage_f(spec, scaled)
    assert a.f_statistic == pytest.approx(b.f_statistic, rel=1e-8)


def test_first_stage_f_multiple_endogenous_unsupported(simulated_market):
    spec, data, _ = simulated_market(seed=2)
    data = data.with_column("price2", data.column("price") * 1.1)
    bad = ModelSpec(
        dependent=spec.dependent,
        exogenous_regressors=spec.exogenous_regressors,
        endogenous_regressors=("price", "price2"),
        instruments=spec.instruments,
        estimator="tsls",
    )
    with pytest.raises(MultipleEndogenousError):
        first_stage_f(bad, data)


def test_first_stage_f_collinear_regressors_error(simulated_market):
    spec, data, _ = simulated_market(seed=2)
    data = data.with_column("x1_twin", 2.0 * data.column("x1"))
    bad = ModelSpec(
        dependent=spec.dependent,
        exogenous_regressors=(*spec.exogenous_regressors, "x1_twin"),
        endogenous_regressors=("price",),
        instruments=spec.instruments,
        estimator="tsls",
    )
    with pytest.raises(RankDeficientError):
        first_stage_f(bad, data)


def test_sargan_requires_overidentification(simulated_market):
    spec, data, _ = simulated_market(seed=4, n_instruments=1)
    result = estimate_tsls(spec, data)
    with pytest.raises(ExactlyIdentifiedError):
        sargan_j(result, spec, data)


def test_sargan_zero_when_residuals_orthogonal(simulated_market):
    spec, data, _ = simulated_market(seed=6)
    fitted = estimate_tsls(spec, data)
    n = data.n_rows
    design = np.column_stack([
        np.ones(n),
        *(data.column(c) for c in spec.instruments),
        *(data.column(c) for c in spec.exogenous_regressors),
    ])
    rng = np.random.default_rng(0)
    w = rng.normal(size=n)
    u = w - design @ np.linalg.lstsq(design, w, rcond=None)[0]
    # A dependent whose residuals y - X b at the fitted coefficients are exactly u.
    synthetic = data.with_column(spec.dependent, _actual_design(spec, data) @ fitted.coefficients + u)
    report = sargan_j(fitted, spec, synthetic)
    assert report.j_statistic <= 1e-12
    assert not report.reject_at_5pct


def test_sargan_j_is_m_times_overall_f(simulated_market):
    spec, data, _ = simulated_market(seed=10, price_endogeneity=0.5)
    result = estimate_tsls(spec, data)
    report = sargan_j(result, spec, data)
    assert report.m == 2
    assert report.k == 1
    assert report.df == 1
    assert report.j_statistic == pytest.approx(report.m * report.residual_regression_f, rel=1e-12)
    assert report.p_value == pytest.approx(
        chi_square_upper_tail(report.j_statistic, report.df), abs=1e-14
    )
    # Decision thresholds agree: p < 0.05 iff J above the upper 5% critical value.
    assert report.reject_at_5pct == (report.j_statistic > 3.841458820694124)


def test_sargan_overall_f_matches_direct_regression(simulated_market):
    spec, data, _ = simulated_market(seed=18, price_endogeneity=0.5)
    result = estimate_tsls(spec, data)
    report = sargan_j(result, spec, data)

    u = data.column(spec.dependent) - _actual_design(spec, data) @ result.coefficients
    n = data.n_rows
    design = np.column_stack([
        np.ones(n),
        *(data.column(c) for c in spec.instruments),
        *(data.column(c) for c in spec.exogenous_regressors),
    ])
    beta = np.linalg.lstsq(design, u, rcond=None)[0]
    rss = float(np.sum((u - design @ beta) ** 2))
    tss = float(np.sum((u - u.mean()) ** 2))
    q = design.shape[1] - 1
    df2 = n - design.shape[1]
    r2 = 1.0 - rss / tss
    oracle_f = (r2 / q) / ((1.0 - r2) / df2)
    assert report.residual_regression_f == pytest.approx(oracle_f, rel=1e-10)
    assert report.n_r_squared == pytest.approx(n * r2, rel=1e-10)


def test_sargan_invariant_to_dependent_rescaling(simulated_market):
    spec, data, _ = simulated_market(seed=22, price_endogeneity=0.5)
    scaled = data.with_column("log_share_diff", 25.0 * data.column("log_share_diff"))
    a = sargan_j(estimate_tsls(spec, data), spec, data)
    b = sargan_j(estimate_tsls(spec, scaled), spec, scaled)
    assert a.j_statistic == pytest.approx(b.j_statistic, rel=1e-8)


def test_fits_and_tests_leave_the_panel_columns_unchanged(simulated_market):
    # Every row is complete, so the fits read the panel's own column arrays.
    spec, data, _ = simulated_market(seed=12, price_endogeneity=0.5)
    before = {name: column.tobytes() for name, column in data.columns.items()}
    first_stage_f(spec, data)
    sargan_j(estimate(spec, data), spec, data)
    for estimator in ("ols", "two_way_fe"):
        estimate(replace(spec, estimator=estimator, **estimator_defaults(estimator)), data)
    assert {name: column.tobytes() for name, column in data.columns.items()} == before
