"""Two-way fixed effects against a dense LSDV oracle, as properties over random panels.

Panels are unbalanced but connected, in both shapes (more units than periods
and more periods than units). Unit effects are always the absorbed factor and
periods the kept dummies, so the shapes differ in which block is larger.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logitdemand.dataio import PanelDataset
from logitdemand.errors import CollinearWithFixedEffectsError
from logitdemand.estimators import ModelSpec, estimate_two_way_fe


def _fe_spec(regressors, covariance="classical"):
    return ModelSpec(dependent="y", exogenous_regressors=tuple(regressors),
                     estimator="two_way_fe", include_intercept=False, covariance=covariance)


def _panel(units, periods, columns):
    return PanelDataset.from_rows(
        units=tuple(f"u{u:02d}" for u in units),
        periods=tuple(2001 + int(t) for t in periods),
        columns=columns,
    )


def _connected_cells(rng, n_units, n_periods, drop_share):
    """Random cells that always keep every period of unit 0 and cell (u, u mod T)."""
    u = np.repeat(np.arange(n_units), n_periods)
    t = np.tile(np.arange(n_periods), n_units)
    spanning = (u == 0) | (t == u % n_periods)
    keep = spanning | (rng.random(u.size) >= drop_share)
    return u[keep], t[keep]


@st.composite
def fe_panels(draw):
    wide = draw(st.booleans())
    big = draw(st.integers(4, 10))
    small = draw(st.integers(2, big - 1))
    n_units, n_periods = (big, small) if wide else (small, big)
    k = draw(st.integers(1, 3))
    drop_share = draw(st.sampled_from([0.0, 0.2, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    u, t = _connected_cells(rng, n_units, n_periods, drop_share)
    assume(u.size >= k + n_units + n_periods + 2)
    x = rng.normal(size=(u.size, k))
    y = (rng.normal(size=n_units)[u] + rng.normal(size=n_periods)[t]
         + x @ rng.normal(size=k) + rng.normal(size=u.size))
    columns = {f"x{i + 1}": x[:, i] for i in range(k)}
    columns["y"] = y
    return _panel(u, t, columns), tuple(columns)[:k]


def _lsdv_oracle(data, regressors):
    """Dense LSDV by numpy.linalg.lstsq: every unit dummy, period dummies after the first."""
    units = np.array(data.units)
    periods = np.array(data.periods)
    unit_levels = np.unique(units)
    period_levels = np.unique(periods)
    dummies = np.column_stack(
        [units == u for u in unit_levels] + [periods == p for p in period_levels[1:]]
    ).astype(float)
    x = np.column_stack([data.column(c) for c in regressors])
    y = data.column("y")
    w = np.column_stack([x, dummies])
    n, p = w.shape
    k = x.shape[1]
    coef = np.linalg.lstsq(w, y, rcond=None)[0]
    resid = y - w @ coef
    bread = np.linalg.inv(w.T @ w)
    meat = (w * resid[:, None] ** 2).T @ w
    dummy_resid = y - dummies @ np.linalg.lstsq(dummies, y, rcond=None)[0]
    return {
        "slopes": coef[:k],
        "classical": np.sqrt(np.diag(resid @ resid / (n - p) * bread)[:k]),
        "robust_hc0": np.sqrt(np.diag(bread @ meat @ bread)[:k]),
        "r_squared": 1.0 - (resid @ resid) / (dummy_resid @ dummy_resid),
        "df_residual": n - p,
        "unit": dict(zip(unit_levels, coef[k:k + unit_levels.size])),
        "period": dict(zip(period_levels, np.concatenate([[0.0], coef[k + unit_levels.size:]]))),
    }


def _close(a, b, rel):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= rel * max(1.0, float(np.max(np.abs(b))))


def _effects(fe, factor, levels):
    return np.array([fe[factor][level] for level in levels])


def _residuals(result, data, regressors):
    """y - X b less each row's unit and period effect, from the result's estimates."""
    fe = result.fixed_effect_values
    effects = np.array([fe["unit"][u] + fe["period"][t] for u, t in zip(data.units, data.periods)])
    x = np.column_stack([data.column(c) for c in regressors])
    return data.column("y") - x @ result.coefficients - effects


@settings(max_examples=40)
@given(fe_panels(), st.sampled_from(["classical", "robust_hc0"]))
def test_fe_matches_lsdv_oracle(panel, covariance):
    data, regressors = panel
    result = estimate_two_way_fe(_fe_spec(regressors, covariance), data)
    oracle = _lsdv_oracle(data, regressors)

    assert _close(result.coefficients, oracle["slopes"], 1e-8)
    assert _close(result.standard_errors, oracle[covariance], 1e-8)
    assert result.r_squared == pytest.approx(oracle["r_squared"], abs=1e-9)
    assert result.df_residual == oracle["df_residual"]
    units = sorted(oracle["unit"])
    periods = sorted(oracle["period"])
    got_units = _effects(result.fixed_effect_values, "unit", units)
    got_periods = _effects(result.fixed_effect_values, "period", periods)
    want_units = _effects(oracle, "unit", units)
    want_periods = _effects(oracle, "period", periods)
    assert _close(got_units - got_units[0], want_units - want_units[0], 1e-8)
    assert _close(got_periods - got_periods[0], want_periods - want_periods[0], 1e-8)
    # The convention: units carry the level and the first period is the base.
    assert _close(got_units, want_units, 1e-8)
    assert result.fixed_effect_values["period"][periods[0]] == 0.0


@settings(max_examples=40)
@given(fe_panels(), st.integers(0, 2**32 - 1))
def test_fe_slopes_ignore_unit_and_period_constants(panel, seed):
    data, regressors = panel
    rng = np.random.default_rng(seed)
    units, periods = sorted(set(data.units)), sorted(set(data.periods))
    unit_shift = dict(zip(units, rng.normal(0.0, 10.0, len(units))))
    period_shift = dict(zip(periods, rng.normal(0.0, 10.0, len(periods))))
    shift = np.array([unit_shift[u] + period_shift[t] for u, t in zip(data.units, data.periods)])
    shifted = data.with_column("y", data.column("y") + shift)

    for covariance in ("classical", "robust_hc0"):
        spec = _fe_spec(regressors, covariance)
        a = estimate_two_way_fe(spec, data)
        b = estimate_two_way_fe(spec, shifted)
        assert _close(b.coefficients, a.coefficients, 1e-8)
        assert _close(b.standard_errors, a.standard_errors, 1e-8)
        assert _close(_residuals(b, shifted, regressors), _residuals(a, data, regressors), 1e-8)


@settings(max_examples=40)
@given(fe_panels(), st.integers(0, 2**32 - 1))
def test_fe_is_invariant_to_row_order(panel, seed):
    data, regressors = panel
    perm = np.random.default_rng(seed).permutation(data.n_rows)
    permuted = PanelDataset.from_rows(
        units=data.unit_levels[data.unit_codes[perm]],
        periods=data.period_levels[data.period_codes[perm]],
        columns={name: col[perm] for name, col in data.columns.items()},
    )
    for covariance in ("classical", "robust_hc0"):
        spec = _fe_spec(regressors, covariance)
        a = estimate_two_way_fe(spec, data)
        b = estimate_two_way_fe(spec, permuted)
        assert _close(b.coefficients, a.coefficients, 1e-10)
        assert _close(b.standard_errors, a.standard_errors, 1e-10)
        assert b.r_squared == pytest.approx(a.r_squared, abs=1e-10)
        assert b.df_residual == a.df_residual
        assert _close(_residuals(b, permuted, regressors),
                      _residuals(a, data, regressors)[perm], 1e-10)
        for factor in ("unit", "period"):
            levels = sorted(a.fixed_effect_values[factor])
            assert _close(_effects(b.fixed_effect_values, factor, levels),
                          _effects(a.fixed_effect_values, factor, levels), 1e-10)


# --- error paths ------------------------------------------------------------

SHAPES = {"more_units": (8, 4), "more_periods": (4, 8)}


def _balanced(n_units, n_periods, seed=0):
    rng = np.random.default_rng(seed)
    u = np.repeat(np.arange(n_units), n_periods)
    t = np.tile(np.arange(n_periods), n_units)
    return _panel(u, t, {"x": rng.normal(size=u.size), "y": rng.normal(size=u.size)})


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_disconnected_panel_raises(shape):
    n_units, n_periods = SHAPES[shape]
    u = np.repeat(np.arange(n_units), n_periods)
    t = np.tile(np.arange(n_periods), n_units)
    # First half of the units only in the first half of the periods, and so on.
    keep = (u < n_units // 2) == (t < n_periods // 2)
    rng = np.random.default_rng(1)
    data = _panel(u[keep], t[keep], {"x": rng.normal(size=keep.sum()),
                                     "y": rng.normal(size=keep.sum())})
    with pytest.raises(CollinearWithFixedEffectsError) as err:
        estimate_two_way_fe(_fe_spec(("x",)), data)
    assert err.value.column.startswith(("unit[", "period["))


@pytest.mark.parametrize("alone", [False, True], ids=["with_x", "alone"])
@pytest.mark.parametrize("factor", ["unit", "period"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_regressor_equal_to_a_dummy_raises(shape, factor, alone):
    data = _balanced(*SHAPES[shape])
    if factor == "unit":
        flag = np.array([u == "u01" for u in data.units], dtype=float)
    else:
        flag = np.array([t == 2002 for t in data.periods], dtype=float)
    data = data.with_column("flag", flag)
    regressors = ("flag",) if alone else ("x", "flag")
    with pytest.raises(CollinearWithFixedEffectsError) as err:
        estimate_two_way_fe(_fe_spec(regressors), data)
    assert err.value.column == "flag"


@pytest.mark.parametrize("factor, shape", [("unit", (10, 7)), ("period", (7, 10))])
def test_large_regressor_constant_within_a_factor_raises(factor, shape):
    # Absorbed (unit): demeaning leaves rounding noise of order 1e8 * eps, far
    # above the solver's tolerance relative to the demeaned design's column
    # norms. Kept (period): the column outweighs every dummy, so the pivoted QR
    # picks it first and reports a dummy as the dependent column.
    data = _balanced(*shape)
    keys = getattr(data, f"{factor}s")
    levels = sorted(set(keys))
    constant = dict(zip(levels, np.random.default_rng(3).normal(size=len(levels))))
    data = data.with_column("level", 1e8 * np.array([constant[v] for v in keys]))
    with pytest.raises(CollinearWithFixedEffectsError) as err:
        estimate_two_way_fe(_fe_spec(("x", "level")), data)
    assert err.value.column == "level"


@pytest.mark.parametrize("alone", [False, True], ids=["with_x", "alone"])
def test_scaled_period_dummy_is_named(alone):
    # 5 x a period dummy outweighs the 0/1 dummies it is collinear with.
    data = _balanced(8, 4)
    data = data.with_column("flag", 5.0 * np.array([t == 2002 for t in data.periods]))
    regressors = ("flag",) if alone else ("x", "flag")
    with pytest.raises(CollinearWithFixedEffectsError) as err:
        estimate_two_way_fe(_fe_spec(regressors), data)
    assert err.value.column == "flag"
