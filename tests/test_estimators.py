import numpy as np
import pytest

from logitdemand.dataio import DEPENDENT_COLUMN, compute_dependent
from logitdemand.errors import (
    CollinearWithFixedEffectsError,
    EstimationError,
    InsufficientObservationsError,
    OrderConditionViolatedError,
    RankDeficientError,
)
from logitdemand.estimators import (
    ModelSpec,
    estimate,
    estimate_ols,
    estimate_tsls,
    estimate_two_way_fe,
    robust_covariance,
)
from logitdemand.matrix import solve_least_squares
from logitdemand.simulate import DgpParams, generate_market


def test_exact_linear_data_recovers_line(make_panel):
    x = np.linspace(-2.0, 2.0, 25)
    data = make_panel({"y": 2.0 + 3.0 * x, "x": x})
    result = estimate_ols(ModelSpec(dependent="y", exogenous_regressors=("x",)), data)
    assert result.coefficient("const") == pytest.approx(2.0, abs=1e-12)
    assert result.coefficient("x") == pytest.approx(3.0, abs=1e-12)
    assert result.r_squared == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_regressor_gets_zero_coefficient(make_panel):
    # x2 orthogonal to both x1 and y = x1 by construction.
    x1 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    x2 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    x2 = x2 - x2.mean()
    x2 = x2 - (x2 @ x1) / (x1 @ x1) * x1
    data = make_panel({"y": x1, "x1": x1, "x2": x2})
    spec = ModelSpec(dependent="y", exogenous_regressors=("x1", "x2"))
    result = estimate_ols(spec, data)
    assert abs(result.coefficient("x2")) <= 1e-10


def test_ols_classical_covariance_matches_formula(make_panel):
    rng = np.random.default_rng(21)
    x = rng.normal(size=50)
    y = 1.0 + 0.5 * x + rng.normal(size=50)
    data = make_panel({"y": y, "x": x})
    result = estimate_ols(ModelSpec(dependent="y", exogenous_regressors=("x",)), data)
    design = np.column_stack([np.ones(50), x])
    beta = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ beta
    sigma2 = resid @ resid / (50 - 2)
    oracle = sigma2 * np.linalg.inv(design.T @ design)
    assert np.max(np.abs(result.covariance_matrix - oracle)) < 1e-12
    assert result.residual_std_error == pytest.approx(np.sqrt(sigma2), abs=1e-12)


def test_ols_unbiased_on_exogenous_simulated_data(simulated_market):
    # Exogenous price: the OLS slope estimates should straddle the truth.
    estimates = []
    for seed in range(60):
        spec, data, truth = simulated_market(seed=seed, estimator="ols", xi_scale=0.5)
        result = estimate(spec, data)
        estimates.append([result.coefficient("x1"), result.coefficient("price")])
    est = np.array(estimates)
    se = est.std(axis=0, ddof=1) / np.sqrt(len(est))
    bias = est.mean(axis=0) - np.array([1.0, -1.0])
    assert np.all(np.abs(bias) <= 3.0 * se)


def test_ols_insufficient_observations(make_panel):
    data = make_panel({"y": [1.0, 2.0], "x": [0.5, 1.0]})
    with pytest.raises(InsufficientObservationsError):
        estimate_ols(ModelSpec(dependent="y", exogenous_regressors=("x",)), data)


def test_ols_rank_deficiency_names_columns(make_panel):
    x = np.arange(10.0)
    data = make_panel({"y": x, "x1": x, "x2": 2.0 * x})
    spec = ModelSpec(dependent="y", exogenous_regressors=("x1", "x2"))
    with pytest.raises(RankDeficientError) as err:
        estimate_ols(spec, data)
    assert "x1" in str(err.value) or "x2" in str(err.value)


def test_rank_loss_on_one_panel_is_named_by_column(twin_panel):
    spec = ModelSpec(dependent="y", exogenous_regressors=("x1", "x2"))
    with pytest.raises(RankDeficientError) as err:
        estimate(spec, twin_panel)
    # Pivoting takes x2 (the largest column) and then the intercept, so x1 is left over.
    assert str(err.value) == "design is rank deficient in columns ['x1']"
    assert err.value.columns == (1,)


@pytest.mark.filterwarnings("error")
def test_a_price_near_1e160_leaves_only_the_columns_it_dwarfs_named():
    params = DgpParams(n_products=4, n_periods=4, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.3, price_endogeneity=0.5, consumers=1000, seed=3)
    data = compute_dependent(generate_market(params)[0])
    data = data.with_column("price", data.column("price") * 1e160)
    spec = ModelSpec(dependent=DEPENDENT_COLUMN, exogenous_regressors=("x1", "x2"),
                     endogenous_regressors=("price",))
    with pytest.raises(RankDeficientError) as err:
        estimate(spec, data)
    assert str(err.value) == "design is rank deficient in columns ['const', 'x1', 'x2']"


def _fe_panel(make_panel, n_units=10, n_periods=10, slope=2.0, noise=0.01, seed=0,
              drop=()):
    rng = np.random.default_rng(seed)
    unit_fx = rng.normal(size=n_units)
    time_fx = rng.normal(size=n_periods)
    units, periods, y, x = [], [], [], []
    for j in range(n_units):
        for t in range(n_periods):
            if (j, t) in drop:
                continue
            xv = rng.normal()
            units.append(f"u{j:02d}")
            periods.append(2001 + t)
            x.append(xv)
            y.append(unit_fx[j] + time_fx[t] + slope * xv + noise * rng.normal())
    data = make_panel({"y": y, "x": x}, units=units, periods=periods)
    return data, unit_fx, time_fx


def test_fe_recovers_slope_under_known_dgp(make_panel):
    data, _, _ = _fe_panel(make_panel)
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",),
                     estimator="two_way_fe", include_intercept=False)
    result = estimate_two_way_fe(spec, data)
    assert result.coefficient("x") == pytest.approx(2.0, abs=0.01)
    assert result.fixed_effect_values is not None
    # The slope's covariance owns its memory: no view keeps the period dummies' covariance alive.
    assert result.covariance_matrix.shape == (1, 1) and result.covariance_matrix.base is None
    # The effects are kept as arrays, and nothing in the result has one entry per row.
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    arrays += [a for pair in result.fixed_effects for a in pair]
    assert len(arrays) == 7 and all(data.n_rows not in a.shape for a in arrays)


def test_fe_recovers_effect_contrasts_when_noiseless(make_panel):
    data, unit_fx, time_fx = _fe_panel(make_panel, noise=0.0, seed=4)
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",),
                     estimator="two_way_fe", include_intercept=False)
    result = estimate_two_way_fe(spec, data)
    fe_units = result.fixed_effect_values["unit"]
    fe_periods = result.fixed_effect_values["period"]
    # Effects are identified up to contrasts against the base categories.
    got_units = np.array([fe_units[f"u{j:02d}"] for j in range(10)])
    got_periods = np.array([fe_periods[2001 + t] for t in range(10)])
    assert np.allclose(got_units - got_units[0], unit_fx - unit_fx[0], atol=1e-9)
    assert np.allclose(got_periods - got_periods[0], time_fx - time_fx[0], atol=1e-9)


def test_fe_regressor_equal_to_unit_dummy_errors(make_panel):
    data, _, _ = _fe_panel(make_panel, n_units=4, n_periods=4)
    dummy = np.array([1.0 if u == "u01" else 0.0 for u in data.units])
    data = data.with_column("flag", dummy)
    spec = ModelSpec(dependent="y", exogenous_regressors=("x", "flag"),
                     estimator="two_way_fe", include_intercept=False)
    with pytest.raises(CollinearWithFixedEffectsError) as err:
        estimate_two_way_fe(spec, data)
    assert "flag" in str(err.value) or "unit[" in str(err.value)


def test_lsdv_matches_double_demeaning_on_balanced_panel(make_panel):
    data, _, _ = _fe_panel(make_panel, n_units=6, n_periods=5, noise=0.3, seed=11)
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",),
                     estimator="two_way_fe", include_intercept=False)
    result = estimate_two_way_fe(spec, data)

    # Within-transformation oracle, valid on balanced panels.
    y = data.column("y")
    x = data.column("x")
    units = np.array(data.units)
    periods = np.array(data.periods)

    def demean(v):
        out = v.astype(float).copy()
        for u in np.unique(units):
            out[units == u] -= v[units == u].mean()
        for t in np.unique(periods):
            out[periods == t] -= v[periods == t].mean()
        return out + v.mean()

    yd = demean(y)
    xd = demean(x)
    slope = (xd @ yd) / (xd @ xd)
    assert result.coefficient("x") == pytest.approx(slope, abs=1e-8)


def test_fe_handles_unbalanced_panels(make_panel):
    drop = {(0, 0), (0, 1), (3, 4)}
    data, _, _ = _fe_panel(make_panel, n_units=5, n_periods=6, drop=drop, seed=2)
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",),
                     estimator="two_way_fe", include_intercept=False)
    result = estimate_two_way_fe(spec, data)
    assert result.n_observations == 5 * 6 - len(drop)
    assert result.coefficient("x") == pytest.approx(2.0, abs=0.02)


def test_fe_needs_two_units_and_periods(make_panel):
    data = make_panel({"y": [1.0, 2.0, 3.0], "x": [0.1, 0.5, 0.9]},
                      units=["a", "a", "a"], periods=[1, 2, 3])
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",),
                     estimator="two_way_fe", include_intercept=False)
    with pytest.raises(InsufficientObservationsError):
        estimate_two_way_fe(spec, data)


def test_fe_spec_rejects_intercept():
    with pytest.raises(ValueError):
        ModelSpec(dependent="y", exogenous_regressors=("x",),
                  estimator="two_way_fe", include_intercept=True)


def test_tsls_with_self_instrument_equals_ols(simulated_market):
    spec, data, _ = simulated_market(seed=5, price_endogeneity=0.6)
    data = data.with_column("price_copy", data.column("price"))
    tsls_spec = ModelSpec(
        dependent=spec.dependent,
        exogenous_regressors=spec.exogenous_regressors,
        endogenous_regressors=("price",),
        instruments=("price_copy",),
        estimator="tsls",
        covariance="classical",
    )
    ols_spec = ModelSpec(
        dependent=spec.dependent,
        exogenous_regressors=spec.exogenous_regressors,
        endogenous_regressors=("price",),
        estimator="ols",
        covariance="classical",
    )
    a = estimate_tsls(tsls_spec, data)
    b = estimate_ols(ols_spec, data)
    assert a.names == b.names
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-10
    x = np.column_stack([np.ones(data.n_rows), *(data.column(c) for c in ols_spec.regressors)])
    assert np.max(np.abs(x @ a.coefficients - x @ b.coefficients)) <= 1e-10


def test_exactly_identified_tsls_matches_iv_closed_form(simulated_market):
    spec, data, _ = simulated_market(seed=9, price_endogeneity=0.5, n_instruments=1)
    result = estimate_tsls(spec, data)
    n = data.n_rows
    ones = np.ones(n)
    x = np.column_stack([ones, data.column("x1"), data.column("x2"), data.column("price")])
    z = np.column_stack([ones, data.column("x1"), data.column("x2"), data.column("cost1")])
    y = data.column("log_share_diff")
    oracle = np.linalg.solve(z.T @ x, z.T @ y)
    assert np.max(np.abs(result.coefficients - oracle)) <= 1e-8


def test_tsls_residuals_use_actual_regressors(simulated_market):
    spec, data, _ = simulated_market(seed=13, price_endogeneity=0.7)
    result = estimate_tsls(spec, data)
    actual = np.column_stack([
        np.ones(data.n_rows),
        data.column("x1"),
        data.column("x2"),
        data.column("price"),
    ])
    residuals = data.column("log_share_diff") - actual @ result.coefficients
    reconstructed = actual @ result.coefficients + residuals
    assert np.max(np.abs(reconstructed - data.column("log_share_diff"))) <= 1e-10
    # The reported fit statistics come from these residuals, not from the first-stage fits.
    rss = residuals @ residuals
    assert result.residual_std_error == pytest.approx(np.sqrt(rss / result.df_residual), rel=1e-10)


def test_tsls_instrument_rescaling_is_inert(simulated_market):
    spec, data, _ = simulated_market(seed=31, price_endogeneity=0.4)
    scaled = data.with_column("cost1", 1234.5 * data.column("cost1"))
    a = estimate_tsls(spec, data)
    b = estimate_tsls(spec, scaled)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-8 * np.max(np.abs(a.coefficients))
    assert np.max(np.abs(a.standard_errors - b.standard_errors)) <= 1e-8 * np.max(a.standard_errors)


def test_tsls_reduces_endogeneity_bias(simulated_market):
    ols_gap = []
    tsls_gap = []
    for seed in range(25):
        spec, data, _ = simulated_market(
            seed=100 + seed, price_endogeneity=0.8, xi_scale=1.0,
            instrument_strength=2.0, estimator="tsls",
        )
        tsls_gap.append(estimate_tsls(spec, data).coefficient("price") + 1.0)
        ols_spec = ModelSpec(
            dependent=spec.dependent,
            exogenous_regressors=spec.exogenous_regressors,
            endogenous_regressors=("price",),
            estimator="ols",
        )
        ols_gap.append(estimate_ols(ols_spec, data).coefficient("price") + 1.0)
    assert abs(np.mean(ols_gap)) > 5.0 * abs(np.mean(tsls_gap))


def test_order_condition_enforced():
    with pytest.raises(OrderConditionViolatedError):
        ModelSpec(dependent="y", endogenous_regressors=("p", "q"),
                  instruments=("z",), estimator="tsls")


def test_role_overlap_rejected():
    with pytest.raises(ValueError):
        ModelSpec(dependent="y", exogenous_regressors=("x",),
                  endogenous_regressors=("x",), instruments=("z", "w"), estimator="tsls")


@pytest.mark.parametrize("roles", [
    {"exogenous_regressors": ("y", "x")},
    {"endogenous_regressors": ("y",), "instruments": ("z",), "estimator": "tsls"},
    {"endogenous_regressors": ("p",), "instruments": ("y",), "estimator": "tsls"},
], ids=["exogenous", "endogenous", "instrument"])
def test_dependent_in_another_role_rejected(roles):
    with pytest.raises(ValueError, match="dependent column 'y' is also listed"):
        ModelSpec(dependent="y", **roles)


def test_robust_covariance_matches_triple_product():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(30, 3))
    u = rng.normal(size=30)
    bread = np.linalg.inv(x.T @ x)
    oracle = bread @ (x.T @ np.diag(u**2) @ x) @ bread
    got = robust_covariance(x, u, bread)
    assert np.max(np.abs(got - oracle)) <= 1e-12


def test_robust_covariance_constant_residuals_identity():
    rng = np.random.default_rng(45)
    x = rng.normal(size=(25, 2))
    c = 1.7
    bread = np.linalg.inv(x.T @ x)
    got = robust_covariance(x, np.full(25, c), bread)
    assert np.max(np.abs(got - c * c * bread)) <= 1e-12


def test_robust_covariance_zero_residuals_is_zero():
    rng = np.random.default_rng(46)
    x = rng.normal(size=(10, 2))
    got = robust_covariance(x, np.zeros(10), np.linalg.inv(x.T @ x))
    assert np.max(np.abs(got)) == 0.0


def test_robust_covariance_is_psd():
    rng = np.random.default_rng(47)
    for _ in range(10):
        x = rng.normal(size=(20, 3))
        u = rng.normal(size=20)
        cov = robust_covariance(x, u, np.linalg.inv(x.T @ x))
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12


@pytest.mark.parametrize("covariance", ["classical", "robust_hc0"])
def test_a_bread_that_overflows_fails_the_fit_under_either_covariance(make_panel, covariance):
    # A regressor near 1e-156 is full rank, but its (X'X)^-1 near 1e312 overflows: the HC0
    # sandwich is refused as an overflowing fit, like the classical covariance.
    rng = np.random.default_rng(0)
    data = make_panel({"y": rng.normal(size=30), "x": 1e-156 * rng.normal(size=30)})
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",), include_intercept=False,
                     covariance=covariance)
    with pytest.raises(EstimationError, match="its coefficient covariance is not finite"):
        estimate(spec, data)


def test_listwise_deletion_counts_rows(make_panel):
    y = np.arange(10.0) + 1.0
    x = np.arange(10.0)
    x_missing = x.copy()
    x_missing[3] = np.nan
    data = make_panel({"y": y, "x": x_missing})
    result = estimate_ols(ModelSpec(dependent="y", exogenous_regressors=("x",)), data)
    assert result.n_observations == 9


def test_equality_of_array_holders_is_identity(simulated_market):
    # Their fields hold numpy arrays, on which a field-by-field `==` would raise.
    (spec, data, truth), (_, data2, truth2) = simulated_market(), simulated_market()
    x = np.column_stack([np.ones(data.n_rows), data.column("x1")])
    y = data.column("price")
    pairs = [(data, data2), (truth, truth2), (estimate(spec, data), estimate(spec, data2)),
             (solve_least_squares(x, y), solve_least_squares(x, y))]
    for a, b in pairs:
        assert a is not b
        assert (a == b, a != b, a == a) == (False, True, True)
