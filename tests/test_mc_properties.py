"""The stacked Monte Carlo against a per-replication reference, as properties.

`simulate._replications` draws each chunk of replications with one
`draw_markets` call and fits the chunk as a stack (R, n, p) through
`estimators.absorb` and `pooled_fit`, `diagnostics.first_stage_stats` and
`sargan_stats`. Every replication's outcome, failures included, comes from
that stack. `_replicate` below is the reference: it draws one replication with
`generate_market` and fits it on its own panel through `estimate`,
`first_stage_f` and `sargan_j`, which raise where that panel fails. Two-way
fixed-effects specs are compared too. The two must agree replication by
replication: the same failure classes, re-draws and first-stage F, the same
numbers within 1e-10, and the same F or J where it is not finite. The chunk
bound is lowered so that a few replications already span several chunks. The
draws themselves are checked bit for bit against the per-replication draw loop
in `test_draw_properties.py`, and the regression code against an independent
lstsq oracle in `test_regression_oracle.py`.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand import cli, dataio, diagnostics, estimators, simulate
from logitdemand.dataio import DEPENDENT_COLUMN, PanelDataset, compute_dependent
from logitdemand.diagnostics import first_stage_f, sargan_j
from logitdemand.errors import (CollinearWithFixedEffectsError, DegenerateSharesError,
                               LogitDemandError)
from logitdemand.estimators import ModelSpec, estimate, estimate_ols, estimate_tsls
from logitdemand.simulate import DgpParams, default_model_spec, generate_market, replication_seeds

TOL = 1e-10


def _replicate(params, spec, seed):
    """One replication drawn and fitted on its own panel: the reference the stacked chunks
    must match. A failure keeps the F computed before it; a market that gave up re-drawing
    counts no re-draws."""
    redraws = int(simulate.draw_markets(params, [seed])[-1][0])
    f = j = p_value = None
    has_f, has_j = simulate._reported_tests(spec)
    try:
        data = compute_dependent(generate_market(dataclasses.replace(params, seed=seed))[0])
        result = estimate(spec, data)
        if has_f:
            f = first_stage_f(spec, data).f_statistic
        if has_j:
            report = sargan_j(result, spec, data)
            j, p_value = report.j_statistic, report.p_value
    except LogitDemandError as exc:
        return simulate._Replication(first_stage_f=f, failure=type(exc).__name__,
                                     redraws=0 if redraws == simulate._MAX_REDRAWS else redraws)
    return simulate._Replication(result.names, result.coefficients, result.standard_errors,
                                 f, j, p_value, redraws)


def _close(a, b, scale):
    return np.max(np.abs(np.subtract(a, b)), initial=0.0) <= TOL * scale


def _same_test(got, want, scale):
    """A finite F or J within TOL * scale; one that is not finite exactly (inf, or nan for 0/0)."""
    if math.isfinite(got) and math.isfinite(want):
        return _close(got, want, scale)
    return np.array_equal(got, want, equal_nan=True)


def _largest_finite(values):
    return max((abs(v) for v in values if v is not None and math.isfinite(v)), default=0.0)


def _assert_same_replications(batched, reference):
    assert len(batched) == len(reference)
    # F and J are compared relative to the largest finite one of the run: J's R^2 = 1 - RSS/TSS
    # carries absolute rounding of a few eps in either path, which is large relative to a J near 0.
    f_scale = _largest_finite(r.first_stage_f for r in reference)
    j_scale = _largest_finite(r.sargan_j for r in reference)
    for got, want in zip(batched, reference):
        assert got.failure == want.failure
        assert got.redraws == want.redraws
        assert (got.first_stage_f is None) == (want.first_stage_f is None)
        if want.first_stage_f is not None:
            assert _same_test(got.first_stage_f, want.first_stage_f, f_scale)
        if want.failure is not None:
            continue
        assert got.names == want.names
        assert _close(got.coefficients, want.coefficients, np.max(np.abs(want.coefficients)))
        assert _close(got.standard_errors, want.standard_errors,
                      np.max(np.abs(want.standard_errors)))
        assert (got.sargan_j is None) == (want.sargan_j is None)
        if want.sargan_j is not None:
            assert _same_test(got.sargan_j, want.sargan_j, j_scale)
            if abs(want.sargan_p_value - 0.05) > TOL:
                assert (got.sargan_p_value < 0.05) == (want.sargan_p_value < 0.05)


def _compare(params, spec, replications, chunk_markets):
    seeds = replication_seeds(params.seed, replications)
    reference = [_replicate(params, spec, seed) for seed in seeds]
    n = params.n_products * params.n_periods
    with mock.patch.object(simulate, "_STACK_ROWS", chunk_markets * n):
        batched = simulate._replications(params, spec, seeds)
        try:
            summary = simulate.run_monte_carlo(params, spec, replications)
        except DegenerateSharesError:
            summary = None
    _assert_same_replications(batched, reference)
    if summary is None:
        assert all(r.failure is not None for r in reference)
        return reference
    want = simulate._summarize(params, replications, reference)
    assert (summary.completed, summary.failed, summary.failures, summary.redraws) == (
        want.completed, want.failed, want.failures, want.redraws)
    return reference


@st.composite
def monte_carlos(draw):
    k = draw(st.integers(0, 2))
    estimator = draw(st.sampled_from(["ols", "tsls", "two_way_fe"]))
    j, t = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    effects = st.sampled_from([None, 1.0, 3.0])
    unit_scale, time_scale = draw(effects), draw(effects)
    params = DgpParams(
        n_products=j,
        n_periods=t,
        unit_effects=unit_scale and tuple(draw(st.lists(st.floats(-unit_scale, unit_scale),
                                                        min_size=j, max_size=j))),
        time_effects=time_scale and tuple(draw(st.lists(st.floats(-time_scale, time_scale),
                                                        min_size=t, max_size=t))),
        n_characteristics=k,
        beta=tuple(draw(st.lists(st.floats(-1.5, 1.5), min_size=k, max_size=k))),
        alpha=draw(st.floats(0.0, 2.0)),
        # Without xi the fit is exact, and SEs, F and J are rounding noise on either path.
        xi_scale=draw(st.sampled_from([0.5, 1.0])),
        price_endogeneity=draw(st.floats(0.0, 1.0)),
        instrument_strength=draw(st.sampled_from([0.0, 0.5, 2.0])),
        n_instruments=draw(st.integers(1, 3)),
        consumers=draw(st.sampled_from([None, None, 40, 1000])),
        characteristic_scale=draw(st.sampled_from([1.0, 1.0, 1.0, 1.0, 0.0])),
        characteristic_loc=draw(st.sampled_from([0.0, 1.0])),
        # Without price noise and endogeneity the first stage is exact, and F is inf.
        price_noise_scale=draw(st.sampled_from([1.0, 1.0, 1.0, 0.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    covariance = draw(st.sampled_from(["classical", "robust_hc0"]))
    spec = default_model_spec(params, estimator=estimator, covariance=covariance)
    if estimator != "two_way_fe":
        spec = dataclasses.replace(spec, include_intercept=draw(st.sampled_from([True, True, False])))
    return params, spec, draw(st.integers(1, 12)), draw(st.integers(1, 4))


@settings(max_examples=150)
@given(monte_carlos())
def test_stacked_monte_carlo_matches_per_replication_fits(case):
    _compare(*case)


@pytest.mark.parametrize("estimator", ["ols", "tsls"])
@pytest.mark.parametrize("covariance", ["classical", "robust_hc0"])
@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("consumers", [None, 500])
def test_every_spec_variant_matches_per_replication_fits(estimator, covariance,
                                                          include_intercept, consumers):
    params = DgpParams(n_products=6, n_periods=5, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.7, price_endogeneity=0.6, n_instruments=3,
                       consumers=consumers, seed=17)
    spec = dataclasses.replace(default_model_spec(params, estimator, covariance),
                               include_intercept=include_intercept)
    reference = _compare(params, spec, replications=12, chunk_markets=5)
    assert all(r.failure is None for r in reference)
    assert all((r.sargan_j is not None) == (estimator == "tsls") for r in reference)


@pytest.mark.parametrize("covariance", ["classical", "robust_hc0"])
@pytest.mark.parametrize("consumers", [None, 500])
@pytest.mark.parametrize("effects", [False, True], ids=["no_effects", "unit_and_time_effects"])
def test_two_way_fe_variants_match_per_replication_fits(covariance, consumers, effects):
    params = DgpParams(n_products=6, n_periods=5, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.7, price_endogeneity=0.6, consumers=consumers, seed=23,
                       unit_effects=(1.5, -1.0, 0.5, 0.0, -0.5, 1.0) if effects else None,
                       time_effects=(0.3, -0.6, 0.9, 0.0, -0.3) if effects else None)
    spec = default_model_spec(params, "two_way_fe", covariance)
    reference = _compare(params, spec, replications=12, chunk_markets=5)
    assert all(r.failure is None for r in reference)
    assert all(r.names == ("x1", "x2", "price") for r in reference)


_SEED_17 = DgpParams(n_products=6, n_periods=5, n_characteristics=2, beta=(1.0, -0.5), xi_scale=0.7,
                     price_endogeneity=0.6, seed=17)


@pytest.mark.parametrize("params, roles, has_f, has_j", [
    # An OLS fit has no first stage: the constant instrument once failed every replication as
    # RankDeficientError.
    (_SEED_17, dict(estimator="ols", covariance="classical", instruments=("cost1", "market_size")),
     False, False),
    # Nor has a two-way FE fit: its F was a pooled first stage with no intercept and no effects.
    (_SEED_17, dict(estimator="two_way_fe", covariance="classical", include_intercept=False),
     False, False),
    # Two endogenous regressors and three instruments: no F, and the J that `sargan_j` gives.
    (dataclasses.replace(_SEED_17, n_instruments=3),
     dict(exogenous_regressors=("x2",), endogenous_regressors=("x1", "price")), False, True),
], ids=["ols_with_constant_instrument", "two_way_fe_with_instruments", "tsls_two_endogenous"])
def test_only_a_tsls_fit_reports_instrument_tests(params, roles, has_f, has_j):
    spec = dataclasses.replace(default_model_spec(params), **roles)
    assert simulate._reported_tests(spec) == (has_f, has_j)
    reference = _compare(params, spec, replications=10, chunk_markets=4)
    assert all(r.failure is None for r in reference)
    assert all((r.first_stage_f is not None) == has_f for r in reference)
    assert all((r.sargan_j is not None) == has_j for r in reference)


def _counted_solver(module, rows):
    """Patch `module`'s solver to append to `rows` the rows of each design it is called on."""
    solve = module.solve_least_squares

    def counted(x, *args):
        rows.append(np.shape(x)[-2])
        return solve(x, *args)
    return mock.patch.object(module, "solve_least_squares", side_effect=counted)


def test_a_tsls_chunk_solves_its_first_stage_once():
    spec = default_model_spec(_SEED_17)
    data = compute_dependent(generate_market(_SEED_17)[0])
    n = data.n_rows
    rows = []

    with _counted_solver(estimators, rows) as fits, _counted_solver(diagnostics, rows) as tests:
        records = simulate._fit_chunk(_SEED_17, spec, replication_seeds(_SEED_17.seed, 8))
        # One factor over the n rows, the first stage's; the second stage and the Sargan
        # regression are small solves in its coordinates, and the F reads it.
        assert (fits.call_count, tests.call_count) == (2, 1)
        assert rows.count(n) == 1
        fits.reset_mock()
        tests.reset_mock()
        rows.clear()
        # Three public calls, each on its own rows: one factor each.
        first_stage_f(spec, data)
        sargan_j(estimate(spec, data), spec, data)
        assert (fits.call_count, tests.call_count) == (4, 1)
        assert rows.count(n) == 3
    assert all(r.failure is None and r.first_stage_f is not None and r.sargan_j is not None
               for r in records)


def test_a_diagnose_solves_its_first_stage_once(tmp_path, capsys):
    # One cost1 cell blank: the n rows are the complete ones.
    spec = default_model_spec(_SEED_17)
    data = compute_dependent(generate_market(_SEED_17)[0])
    cost1 = data.column("cost1").copy()
    cost1[4] = np.nan
    data = data.with_column("cost1", cost1)
    dataio.write_panel_csv(data, tmp_path / "panel.csv")
    (tmp_path / "spec.json").write_text(json.dumps({
        "dataset": "panel.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1", "x2"],
        "endogenous": ["price"], "instruments": ["cost1", "cost2"], "estimator": "tsls"}))
    n = data.n_rows - 1
    rows = []
    with _counted_solver(estimators, rows), _counted_solver(diagnostics, rows):
        # The first stage's factor over the n rows; the second stage and the Sargan
        # regression are small solves in its coordinates, and the F reads it.
        assert diagnostics.diagnose(spec, data)[1] is not None
        assert rows.count(n) == 1 and len(rows) == 3
        rows.clear()
        assert cli.main(["diagnose", "--spec", str(tmp_path / "spec.json")]) == 0
        assert rows.count(n) == 1 and len(rows) == 3
    assert "Sargan J test" in capsys.readouterr().out


def test_a_monte_carlo_seeds_its_markets_without_numpys_seeding_calls():
    # Replication seeds and market generators come from the SeedSequence words `simulate`
    # computes for a chunk at once; a fallback to numpy's own seeding fails here.
    params = dataclasses.replace(_SEED_17, consumers=1000)
    with mock.patch("numpy.random.default_rng", side_effect=np.random.default_rng) as rngs, \
            mock.patch("numpy.random.SeedSequence", side_effect=np.random.SeedSequence) as seqs, \
            mock.patch.object(simulate, "_STACK_ROWS", 600):  # 20 markets per chunk
        summary = simulate.run_monte_carlo(params, default_model_spec(params), 60)
        assert (rngs.call_count, seqs.call_count) == (0, 0)
        np.random.default_rng(0), np.random.SeedSequence(0)
        assert (rngs.call_count, seqs.call_count) == (1, 1)
    assert summary.completed == 60


def test_exact_first_stage_gives_an_infinite_f_on_both_paths():
    # Price is exactly the instruments' sum, so the unrestricted first stage fits exactly. Both
    # solvers leave rounding residuals, which count as RSS 0: F is inf, not noise near 1e31.
    params = DgpParams(n_products=4, n_periods=3, n_characteristics=1, beta=(1.0,), xi_scale=0.5,
                       price_endogeneity=0.0, price_noise_scale=0.0, seed=7)
    spec = default_model_spec(params)
    seeds = replication_seeds(params.seed, 6)
    # The markets' true mean utilities as the dependent: the F reads the price column alone.
    columns, delta, *_ = simulate.draw_markets(params, seeds)
    columns[DEPENDENT_COLUMN] = delta
    _, first = estimators.first_stage(spec, columns)
    assert np.all(diagnostics.first_stage_stats(first.nested_rss[:, 0], len(spec.instruments),
                                                params.n_products * params.n_periods)[0] == math.inf)

    reference = [_replicate(params, spec, seed) for seed in seeds]
    with mock.patch.object(simulate, "_STACK_ROWS", 4 * params.n_products * params.n_periods):
        batched = simulate._replications(params, spec, seeds)
    assert [r.first_stage_f for r in batched] == [r.first_stage_f for r in reference]
    assert [r.first_stage_f for r in reference] == [math.inf] * 6
    assert [r.failure for r in batched] == [r.failure for r in reference] == [None] * 6
    assert simulate.run_monte_carlo(params, spec, 6).mean_first_stage_f == math.inf


@pytest.mark.parametrize("shape", [
    (1, 5),  # one product: no unit effect to contrast
    (5, 1),  # one period
    (2, 2),  # 4 rows for 2 slopes and 3 effects
])
def test_two_way_fe_markets_too_small_fail_as_before(shape):
    params = DgpParams(n_products=shape[0], n_periods=shape[1], n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, seed=8)
    reference = _compare(params, default_model_spec(params, "two_way_fe"), replications=5,
                         chunk_markets=2)
    assert [r.failure for r in reference] == ["InsufficientObservationsError"] * 5


@pytest.mark.parametrize("beta, loc, scale", [
    (1.0, 1.0, 0.0),  # x1 is the constant 1, which the unit effects absorb in every market
    # x1 varies by 1e-12 of its level: rounding noise that `absorb` zeroes in every market.
    (0.0, 1e9, 1e-3),
])
def test_two_way_fe_constant_characteristic_fails_through_the_per_replication_path(beta, loc, scale):
    params = DgpParams(n_products=5, n_periods=4, n_characteristics=1, beta=(beta,), xi_scale=0.5,
                       characteristic_scale=scale, characteristic_loc=loc, seed=3)
    spec = default_model_spec(params, "two_way_fe")
    reference = _compare(params, spec, replications=6, chunk_markets=4)
    assert [r.failure for r in reference] == [CollinearWithFixedEffectsError.__name__] * 6


def test_rank_deficient_markets_take_the_per_replication_path_and_fail_as_before():
    # With no spread, x1 is the constant 1: collinear with the intercept in every market.
    params = DgpParams(n_products=5, n_periods=4, n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, characteristic_scale=0.0, characteristic_loc=1.0, seed=3)
    spec = default_model_spec(params)
    reference = _compare(params, spec, replications=6, chunk_markets=4)
    assert [r.failure for r in reference] == ["RankDeficientError"] * 6
    assert all(r.first_stage_f is None for r in reference)


@pytest.mark.parametrize("params", [
    # Forty consumers over five products often leave one without a sale: a re-draw.
    DgpParams(n_products=5, n_periods=3, n_characteristics=1, beta=(1.0,), xi_scale=0.5,
              price_endogeneity=0.5, consumers=40, seed=11),
    # A product with utility near 29 leaves the outside share near 1e-12: many draws are
    # rejected, and some replications give up after the bounded number of re-draws.
    DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(1.0,), xi_scale=1.0,
              unit_effects=(29.0, 0.0, 0.0), seed=5),
])
def test_failures_and_redraws_match_the_per_replication_sums(params):
    spec = default_model_spec(params)
    reference = _compare(params, spec, replications=40, chunk_markets=7)
    summary = simulate.run_monte_carlo(params, spec, 40)
    assert summary.redraws == sum(r.redraws for r in reference) > 0
    assert summary.failed == sum(r.failure is not None for r in reference)
    assert summary.failures == {name: sum(r.failure == name for r in reference)
                                for name in {r.failure for r in reference} - {None}}
    assert summary.failed == sum(summary.failures.values())


def test_a_market_that_gave_up_fails_without_the_per_replication_path():
    params = DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(1.0,), xi_scale=1.0,
                       unit_effects=(29.0, 0.0, 0.0), seed=5)
    seeds = replication_seeds(params.seed, 40)
    gave_up = simulate.draw_markets(params, seeds)[-1] == simulate._MAX_REDRAWS
    assert 0 < gave_up.sum() < len(seeds)
    spec = default_model_spec(params)
    records = simulate._replications(params, spec, seeds)
    expected = [(DegenerateSharesError.__name__, 0)] * int(gave_up.sum())
    assert [(r.failure, r.redraws) for r, g in zip(records, gave_up) if g] == expected
    reference = [_replicate(params, spec, seed) for seed, g in zip(seeds, gave_up) if g]
    assert [(r.failure, r.redraws) for r in reference] == expected


_CONSTANT_X1 = DgpParams(n_products=5, n_periods=4, n_characteristics=1, beta=(1.0,),
                         xi_scale=0.5, characteristic_scale=0.0, characteristic_loc=1.0, seed=3)


@pytest.mark.parametrize("params, estimator, include_intercept, failure, f", [
    # x1 is the constant 1: collinear with the intercept, and with the unit effects.
    (_CONSTANT_X1, "tsls", True, "RankDeficientError", None),
    (_CONSTANT_X1, "two_way_fe", False, "CollinearWithFixedEffectsError", None),
    # 4 rows for 2 slopes and 3 effects.
    (dataclasses.replace(_CONSTANT_X1, n_products=2, n_periods=2, characteristic_scale=1.0),
     "two_way_fe", False, "InsufficientObservationsError", None),
    # Without an intercept the first stage has full rank, but the Sargan regression's intercept
    # duplicates x1: the F is kept.
    (dataclasses.replace(_CONSTANT_X1, n_instruments=3), "tsls", False, "RankDeficientError",
     "finite"),
    # Price is exactly the instruments' sum: the first stage is exact and F is inf.
    (dataclasses.replace(_CONSTANT_X1, characteristic_scale=1.0, price_endogeneity=0.0,
                         price_noise_scale=0.0), "tsls", True, None, math.inf),
    # x1 near 1e308 in every cell: each unit's sum overflows in the within transform.
    (dataclasses.replace(_CONSTANT_X1, beta=(0.0,), characteristic_loc=1e308,
                         characteristic_scale=1e306), "two_way_fe", False, "EstimationError", None),
], ids=["rank_deficient", "collinear_with_fe", "too_few_rows", "sargan_rank_deficient",
        "exact_first_stage", "within_transform_overflows"])
def test_every_outcome_comes_from_the_stack(params, estimator, include_intercept, failure, f):
    spec = dataclasses.replace(default_model_spec(params, estimator),
                               include_intercept=include_intercept)
    fault = AssertionError("a replication was fitted on its own panel")
    with mock.patch.object(estimators, "estimate", side_effect=fault), \
            mock.patch.object(diagnostics, "first_stage_f", side_effect=fault), \
            mock.patch.object(diagnostics, "sargan_j", side_effect=fault), \
            mock.patch.object(dataio, "compute_dependent", side_effect=fault):
        reference = _compare(params, spec, replications=6, chunk_markets=4)
    assert [r.failure for r in reference] == [failure] * 6
    for r in reference:
        if f == "finite":
            assert math.isfinite(r.first_stage_f)
        else:
            assert r.first_stage_f == f


def _copies(rng, stack, n):
    """Exogenous x1, endogenous price and an instrument that is an exact copy of price."""
    x1 = rng.normal(size=(stack, n))
    price = rng.normal(size=(stack, n)) + 0.5 * x1
    y = 1.0 + 0.7 * x1 - 1.2 * price + rng.normal(size=(stack, n))
    return {"y": y, "x1": x1, "price": price, "z_price": price.copy()}


def _specs(covariance):
    common = dict(dependent="y", exogenous_regressors=("x1",), endogenous_regressors=("price",),
                  covariance=covariance)
    return (ModelSpec(estimator="ols", **common),
            ModelSpec(estimator="tsls", instruments=("z_price",), **common))


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(6, 40),
       st.sampled_from(["classical", "robust_hc0"]))
def test_tsls_with_copied_regressors_as_instruments_is_ols(seed, n, covariance):
    columns = _copies(np.random.default_rng(seed), 3, n)
    ols_spec, tsls_spec = _specs(covariance)

    # One fit on each market's panel.
    for r in range(3):
        data = PanelDataset.from_rows(units=tuple(f"u{i:02d}" for i in range(n)),
                                      periods=(2001,) * n,
                                      columns={name: col[r] for name, col in columns.items()})
        ols, tsls = estimate_ols(ols_spec, data), estimate_tsls(tsls_spec, data)
        assert _close(tsls.coefficients, ols.coefficients, np.max(np.abs(ols.coefficients)))
        assert _close(tsls.standard_errors, ols.standard_errors, np.max(ols.standard_errors))

    # A stack of fits through the Monte Carlo's stacked path. The copy makes the first stage an
    # exact fit whose RSS can round to exactly 0 (seed 1, n 6): that market's F is infinite, and
    # it completes like the others.
    ols_stack = simulate._fit_stack(ols_spec, columns, n_periods=1)
    tsls_stack = simulate._fit_stack(tsls_spec, columns, n_periods=1)
    _, first = estimators.first_stage(tsls_spec, columns)
    f = diagnostics.first_stage_stats(first.nested_rss[:, 0], 1, n)[0]
    assert [a.first_stage_f for a in tsls_stack] == f.tolist()
    for a, b in zip(tsls_stack, ols_stack):
        assert a.failure is None
        assert _close(a.coefficients, b.coefficients, np.max(np.abs(b.coefficients)))
        assert _close(a.standard_errors, b.standard_errors, np.max(b.standard_errors))


def test_cli_and_monte_carlo_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency; importing scipy.linalg alone added about 8 MB of peak
    # RSS to the Monte Carlo benchmark. With sys.modules["scipy"] = None any scipy import fails.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import logitdemand.cli\n"
        "from logitdemand import dataio, simulate\n"
        "params = simulate.DgpParams(n_products=4, n_periods=3, xi_scale=0.5, seed=1)\n"
        "for est in ('ols', 'tsls', 'two_way_fe'):\n"
        "    simulate.run_monte_carlo(params, simulate.default_model_spec(params, est), 5)\n"
        f"dataio.write_panel_csv(simulate.generate_market(params)[0], {str(tmp_path / 'm.csv')!r})\n"
        f"spec = {str(tmp_path / 'spec.json')!r}\n"
        "assert logitdemand.cli.main(['estimate', '--spec', spec, '--method', 'ols']) == 0\n"
        "assert logitdemand.cli.main(['diagnose', '--spec', spec]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    spec = {"dataset": "m.csv", "dependent": "log_share_diff", "exogenous": ["x1"],
            "endogenous": ["price"], "instruments": ["cost1", "cost2"], "estimator": "tsls"}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert "Student t(n-p)" in out.stdout
    assert "Sargan J test (H0" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"
