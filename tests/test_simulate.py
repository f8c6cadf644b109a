import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from logitdemand import simulate
from logitdemand.dataio import DEPENDENT_COLUMN, compute_dependent
from logitdemand.errors import DegenerateSharesError, UnknownColumnError
from logitdemand.estimators import design_matrix, estimate, estimate_tsls
from logitdemand.matrix import solve_least_squares
from logitdemand.simulate import (
    DgpParams,
    default_model_spec,
    generate_market,
    replication_seeds,
    run_monte_carlo,
)


def test_flat_utilities_split_the_market_evenly():
    params = DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(0.0,),
                       alpha=0.0, xi_scale=0.0, instrument_strength=0.0,
                       price_noise_scale=0.0, seed=1)
    data, truth = generate_market(params)
    assert np.allclose(truth.delta, 0.0)
    assert np.allclose(truth.inside_shares, 0.25)
    assert all(s0 == pytest.approx(0.25) for s0 in truth.outside_shares.values())


def test_single_product_log_two_effect():
    params = DgpParams(n_products=1, n_periods=1, n_characteristics=0, beta=(),
                       alpha=0.0, xi_scale=0.0, unit_effects=(math.log(2.0),),
                       instrument_strength=0.0, price_noise_scale=0.0, seed=0)
    data, truth = generate_market(params)
    assert truth.delta[0] == pytest.approx(math.log(2.0))
    assert truth.inside_shares[0] == pytest.approx(2.0 / 3.0)


def test_sampled_quantities_concentrate_on_exact_shares():
    exact = DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(0.5,),
                      alpha=1.0, xi_scale=0.2, seed=77)
    sampled = DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(0.5,),
                        alpha=1.0, xi_scale=0.2, seed=77, consumers=10**6)
    _, truth = generate_market(exact)
    data, _ = generate_market(sampled)
    frequencies = data.column("quantity") / data.column("market_size")
    assert np.max(np.abs(frequencies - truth.inside_shares)) < 5e-3


def test_generated_dataset_passes_validation_and_loads(tmp_path):
    from logitdemand.dataio import load_panel, write_panel_csv

    params = DgpParams(n_products=4, n_periods=3, n_characteristics=2,
                       beta=(1.0, 0.3), seed=5, consumers=5000)
    data, _ = generate_market(params)
    out = tmp_path / "sim.csv"
    write_panel_csv(data, out)
    loaded = load_panel(out)
    assert loaded.n_rows == 12
    for name in data.columns:
        assert np.array_equal(loaded.column(name), data.column(name))


def test_generation_is_seed_deterministic():
    params = DgpParams(n_products=5, n_periods=4, n_characteristics=1, beta=(0.7,),
                       xi_scale=0.4, seed=123, consumers=1000)
    a, _ = generate_market(params)
    b, _ = generate_market(params)
    assert a.units == b.units and a.periods == b.periods
    for name in a.columns:
        assert np.array_equal(a.column(name), b.column(name))


def test_degenerate_shares_error_after_bounded_retries():
    params = DgpParams(n_products=1, n_periods=1, n_characteristics=0, beta=(),
                       alpha=0.0, xi_scale=0.0, unit_effects=(50.0,),
                       instrument_strength=0.0, price_noise_scale=0.0, seed=0)
    with pytest.raises(DegenerateSharesError):
        generate_market(params)


def test_impossible_consumer_counts_error():
    # Two consumers cannot give five products and the outside option positive counts.
    params = DgpParams(n_products=5, n_periods=1, n_characteristics=0, beta=(),
                       alpha=0.0, xi_scale=0.0, seed=3, consumers=2,
                       instrument_strength=0.0, price_noise_scale=0.0)
    with pytest.raises(DegenerateSharesError):
        generate_market(params)


def test_param_validation():
    with pytest.raises(ValueError):
        DgpParams(n_products=0, n_periods=1)
    with pytest.raises(ValueError):
        DgpParams(n_products=1, n_periods=1, beta=(1.0, 2.0), n_characteristics=1)
    with pytest.raises(ValueError):
        DgpParams(n_products=1, n_periods=1, xi_scale=-0.1)
    with pytest.raises(ValueError):
        DgpParams(n_products=2, n_periods=2, unit_effects=(1.0,))
    # Counts and the seed are integers: numpy integers pass, bools and floats do not.
    assert DgpParams(n_products=np.int64(2), n_periods=np.int32(3), seed=np.uint64(7)).n_products == 2
    with pytest.raises(ValueError, match="n_periods must be an integer"):
        DgpParams(n_products=1, n_periods=np.bool_(True))
    with pytest.raises(ValueError, match="n_instruments must be an integer"):
        DgpParams(n_products=1, n_periods=1, n_instruments=2.0)


def test_noiseless_tsls_identifies_exactly():
    params = DgpParams(n_products=5, n_periods=6, n_characteristics=2,
                       beta=(1.0, -0.5), alpha=2.0, xi_scale=0.0,
                       price_endogeneity=0.0, seed=19)
    data, _ = generate_market(params)
    data = compute_dependent(data)
    result = estimate_tsls(default_model_spec(params), data)
    assert result.coefficient("x1") == pytest.approx(1.0, abs=1e-8)
    assert result.coefficient("x2") == pytest.approx(-0.5, abs=1e-8)
    assert result.coefficient("price") == pytest.approx(-2.0, abs=1e-8)
    assert result.coefficient("const") == pytest.approx(0.0, abs=1e-8)
    assert result.r_squared == pytest.approx(1.0, abs=1e-10)


def test_monte_carlo_ols_consistent_under_exogeneity():
    params = DgpParams(n_products=8, n_periods=8, n_characteristics=1, beta=(1.0,),
                       alpha=1.0, xi_scale=0.5, price_endogeneity=0.0, seed=50)
    summary = run_monte_carlo(params, default_model_spec(params, estimator="ols"),
                              replications=150)
    assert summary.failed == 0
    for name in ("x1", "price"):
        assert abs(summary.mean_bias[name]) <= 3.0 * summary.mean_bias_se[name]


def test_monte_carlo_is_deterministic():
    params = DgpParams(n_products=4, n_periods=4, n_characteristics=1, beta=(0.8,),
                       xi_scale=0.3, seed=9)
    a = run_monte_carlo(params, replications=20)
    b = run_monte_carlo(params, replications=20)
    assert a == b


def test_replication_seeds_are_deterministic():
    assert replication_seeds(42, 500) == replication_seeds(42, 500)
    assert replication_seeds(42, 10) == replication_seeds(42, 500)[:10]
    assert len(set(replication_seeds(42, 500))) == 500


def test_replication_seeds_take_one_word_spawn_keys_and_non_negative_seeds():
    # Child r's spawn key is one 32-bit word, so r stops below 2**32; refused before any work.
    with pytest.raises(ValueError, match="at most 2\\*\\*32"):
        replication_seeds(42, 2**32 + 1)
    with pytest.raises(ValueError, match="non-negative"):
        replication_seeds(-1, 3)


def test_neighbouring_base_seeds_share_no_replication_market():
    assert not set(replication_seeds(42, 500)) & set(replication_seeds(43, 500))
    params = DgpParams(n_products=3, n_periods=3, n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, seed=0)
    prices = {
        base: {
            generate_market(dataclasses.replace(params, seed=s))[0].column("price").tobytes()
            for s in replication_seeds(base, 20)
        }
        for base in (42, 43)
    }
    assert len(prices[42]) == len(prices[43]) == 20
    assert not prices[42] & prices[43]


def test_monte_carlo_runs_replications_on_spawned_seeds():
    params = DgpParams(n_products=5, n_periods=5, n_characteristics=1, beta=(0.8,),
                       xi_scale=0.4, seed=42)
    spec = default_model_spec(params, estimator="ols")
    summary = run_monte_carlo(params, spec, replications=1)
    data, _ = generate_market(dataclasses.replace(params, seed=replication_seeds(42, 1)[0]))
    data = compute_dependent(data)
    truth = params.true_coefficients()["price"]
    # Exactly the stacked fit of that one market: the same seed, draw and inversion.
    x, _ = design_matrix({name: data.column(name)[None] for name in spec.regressors},
                         spec.regressors, True, (1, data.n_rows))
    stacked = solve_least_squares(x, data.column(DEPENDENT_COLUMN)[None])
    assert summary.mean_bias["price"] == stacked.coefficients[0, -1] - truth
    # And the single-panel estimate, the same solve on a stack of one, within rounding.
    result = estimate(spec, data)
    assert summary.mean_bias["price"] == pytest.approx(result.coefficient("price") - truth,
                                                       rel=0.0, abs=1e-10)


def test_monte_carlo_counts_failures():
    # Consumers too few for the product count: every replication degenerates.
    params = DgpParams(n_products=5, n_periods=1, n_characteristics=0, beta=(),
                       alpha=0.0, xi_scale=0.0, seed=3, consumers=2,
                       instrument_strength=0.0, price_noise_scale=0.0)
    with pytest.raises(DegenerateSharesError):
        run_monte_carlo(params, replications=3)


def test_monte_carlo_that_fails_everywhere_names_the_failures_by_class():
    # With no spread, x1 is the constant 1: collinear with the intercept in every market.
    params = DgpParams(n_products=5, n_periods=4, n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, characteristic_scale=0.0, characteristic_loc=1.0, seed=3)
    with pytest.raises(DegenerateSharesError) as err:
        run_monte_carlo(params, replications=3)
    assert str(err.value) == "every replication failed (RankDeficientError 3); nothing to summarize"


def test_monte_carlo_on_a_column_the_generator_does_not_make_raises_up_front():
    params = DgpParams(n_products=4, n_periods=3, n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, seed=2)
    spec = dataclasses.replace(default_model_spec(params), exogenous_regressors=("x1", "Alone"))
    with mock.patch.object(simulate, "draw_markets") as draws, \
            pytest.raises(UnknownColumnError, match="'Alone'"):
        run_monte_carlo(params, spec, replications=3)
    assert draws.call_count == 0


def test_a_coding_error_in_the_stacked_fit_escapes_the_monte_carlo():
    # The stacked code names each market's failure itself and catches nothing else: any other
    # exception in it is a fault and must surface.
    params = DgpParams(n_products=4, n_periods=3, n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, seed=2)
    fault = ValueError("not enough values to unpack (expected 7, got 6)")
    with mock.patch.object(simulate, "_fit_stack", side_effect=fault) as stack, \
            pytest.raises(ValueError, match="not enough values to unpack"):
        run_monte_carlo(params, replications=3)
    assert stack.call_count == 1


@pytest.mark.parametrize("replications", [2.5, True])
def test_monte_carlo_replications_must_be_an_integer(replications):
    params = DgpParams(n_products=4, n_periods=3, seed=2)
    with pytest.raises(ValueError, match="^replications must be an integer$"):
        run_monte_carlo(params, replications=replications)


def test_monte_carlo_reports_diagnostics():
    params = DgpParams(n_products=6, n_periods=6, n_characteristics=1, beta=(1.0,),
                       xi_scale=0.5, price_endogeneity=0.5, instrument_strength=1.5,
                       price_noise_scale=0.5, seed=31)
    summary = run_monte_carlo(params, replications=40)
    assert summary.mean_first_stage_f > 10.0
    assert 0.0 <= summary.sargan_rejection_rate <= 0.2
    assert summary.completed == 40
    assert set(summary.coefficient_names) == {"const", "x1", "price"}
    assert summary.true_values["price"] == -1.0


def test_dependent_column_reconstructs_true_delta():
    params = DgpParams(n_products=4, n_periods=5, n_characteristics=1, beta=(0.6,),
                       xi_scale=0.4, seed=8)
    data, truth = generate_market(params)
    data = compute_dependent(data)
    assert np.max(np.abs(data.column(DEPENDENT_COLUMN) - truth.delta)) < 1e-10
