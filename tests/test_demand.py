import math

import numpy as np
import pytest

from logitdemand.demand import (
    invert_shares,
    predict_shares,
    shares_from_quantities,
)
from logitdemand.errors import OutsideShareNonPositiveError, ZeroQuantityError


def _random_shares(rng):
    j = int(rng.integers(1, 8))
    raw = rng.dirichlet(np.ones(j + 1))
    # Keep every share comfortably inside (0, 1).
    raw = 0.9 * raw + 0.1 / (j + 1)
    raw /= raw.sum()
    return raw[:j], float(raw[j])


def test_even_split_shares():
    inside, outside = shares_from_quantities([50.0, 50.0], 200.0)
    assert np.allclose(inside, [0.25, 0.25])
    assert outside[0] == pytest.approx(0.5)


def test_single_product_shares():
    inside, outside = shares_from_quantities([100.0], 200.0)
    assert inside[0] == pytest.approx(0.5)
    assert outside[0] == pytest.approx(0.5)


def test_three_product_shares_match_arithmetic():
    inside, outside = shares_from_quantities([30.0, 20.0, 10.0], 120.0)
    assert np.allclose(inside, [0.25, 1.0 / 6.0, 1.0 / 12.0])
    assert outside[0] == pytest.approx(0.5)


def test_shares_per_period_code():
    # Rows interleave two periods with their own market sizes.
    inside, outside = shares_from_quantities([30.0, 10.0, 20.0, 10.0], [120.0, 40.0],
                                             codes=[0, 1, 0, 1])
    assert np.allclose(inside, [0.25, 0.25, 1.0 / 6.0, 0.25])
    assert np.allclose(outside, [1.0 - 0.25 - 1.0 / 6.0, 0.5])


def test_zero_quantity_is_an_error():
    with pytest.raises(ZeroQuantityError):
        shares_from_quantities([10.0, 0.0], 100.0)


def test_saturated_market_is_an_error():
    with pytest.raises(OutsideShareNonPositiveError):
        shares_from_quantities([150.0, 50.0], 200.0)
    with pytest.raises(OutsideShareNonPositiveError):
        shares_from_quantities([100.0, 100.0], 200.0)  # exactly exhausted also fails
    with pytest.raises(OutsideShareNonPositiveError):
        # Only the second period is full.
        shares_from_quantities([10.0, 30.0, 10.0], [100.0, 40.0], codes=[0, 1, 1])


def test_equal_shares_invert_to_zero_utility():
    delta = invert_shares([0.5], 0.5)
    assert delta[0] == pytest.approx(0.0, abs=1e-15)


def test_quarter_shares_invert_to_log_half():
    delta = invert_shares([0.25, 0.25], 0.5)
    assert np.allclose(delta, math.log(0.5))
    assert delta[0] == pytest.approx(-0.693147, abs=1e-6)


def test_inversion_round_trip_on_random_tables():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        inside, outside = _random_shares(rng)
        predicted, predicted_outside = predict_shares(invert_shares(inside, outside))
        assert np.max(np.abs(predicted - inside)) <= 1e-10
        assert abs(predicted_outside[0] - outside) <= 1e-10


def test_inversion_round_trip_with_interleaved_periods():
    rng = np.random.default_rng(2025)
    blocks = [_random_shares(rng) for _ in range(6)]
    codes = np.concatenate([np.full(s.size, t) for t, (s, _) in enumerate(blocks)])
    order = rng.permutation(codes.size)
    inside = np.concatenate([s for s, _ in blocks])[order]
    outside = np.array([s0 for _, s0 in blocks])
    predicted, predicted_outside = predict_shares(invert_shares(inside, outside, codes[order]),
                                                  codes[order])
    assert np.max(np.abs(predicted - inside)) <= 1e-10
    assert np.max(np.abs(predicted_outside - outside)) <= 1e-10


def test_predict_single_zero_utility():
    inside, outside = predict_shares([0.0])
    assert inside[0] == pytest.approx(0.5)
    assert outside[0] == pytest.approx(0.5)


def test_predict_log_two_utility():
    inside, outside = predict_shares([math.log(2.0)])
    assert inside[0] == pytest.approx(2.0 / 3.0)
    assert outside[0] == pytest.approx(1.0 / 3.0)


def test_predict_matches_direct_summation_oracle():
    delta = np.array([1.5, -0.3, 0.0])
    inside, outside = predict_shares(delta)
    denom = 1.0 + np.exp(delta).sum()
    assert np.max(np.abs(inside - np.exp(delta) / denom)) <= 1e-12
    assert outside[0] == pytest.approx(1.0 / denom, abs=1e-12)
    assert inside.sum() + outside[0] == pytest.approx(1.0, abs=1e-12)


def test_predict_survives_extreme_utilities():
    # Max-shift evaluation keeps utilities up to +-700 against the outside
    # option finite and strictly inside (0, 1).
    inside, outside = predict_shares([700.0, 699.0])
    assert math.isfinite(inside[0]) and 0.0 < inside[0] < 1.0
    assert outside[0] > 0.0
    inside, outside = predict_shares([-700.0])
    assert 0.0 < inside[0] < 1e-300
    assert outside[0] == pytest.approx(1.0, abs=1e-12)
    # Each period takes its own shift: one at +700 leaves the other's -700 intact.
    inside, outside = predict_shares([700.0, -700.0, 699.0], codes=[0, 1, 0])
    assert 0.0 < inside[1] < 1e-300
    assert outside[1] == pytest.approx(1.0, abs=1e-12)
    assert outside[0] > 0.0 and np.all(np.isfinite(inside))


def test_share_ratios_obey_iia():
    # Dropping a third alternative leaves the remaining share ratio unchanged.
    delta = np.array([0.8, -0.2, 1.1])
    full, _ = predict_shares(delta)
    reduced, _ = predict_shares(delta[:2])
    ratio_full = full[0] / full[1]
    ratio_reduced = reduced[0] / reduced[1]
    assert ratio_full == pytest.approx(ratio_reduced, rel=1e-12)


def test_raising_a_utility_is_monotone():
    delta = np.array([0.5, -0.5, 0.0])
    base, base_outside = predict_shares(delta)
    bumped_delta = delta.copy()
    bumped_delta[0] += 0.3
    bumped, bumped_outside = predict_shares(bumped_delta)
    assert bumped[0] > base[0]
    assert bumped[1] < base[1]
    assert bumped[2] < base[2]
    assert bumped_outside[0] < base_outside[0]


def test_normalized_map_is_injective():
    # With the outside utility pinned at zero, translating delta moves shares.
    delta = np.array([0.2, -0.4])
    base, _ = predict_shares(delta)
    shifted, _ = predict_shares(delta + 1.0)
    assert not np.allclose(base, shifted)
    # Inside-share ratios are translation invariant all the same.
    assert base[0] / base[1] == pytest.approx(shifted[0] / shifted[1], rel=1e-12)


def test_share_table_validation():
    with pytest.raises(ValueError):
        invert_shares([0.6], 0.5)  # does not sum to one
    with pytest.raises(ValueError):
        invert_shares([0.0, 0.5], 0.5)  # boundary share
    with pytest.raises(ValueError):
        invert_shares([0.25, 0.25, 0.5], [0.5, 0.4], codes=[0, 0, 1])  # second period sums to 0.9
    with pytest.raises(ValueError):
        predict_shares([np.nan])


@pytest.mark.parametrize("outside", [0.0, 1.5])
def test_an_outside_share_outside_the_unit_interval_is_refused(outside):
    with pytest.raises(ValueError, match=r"outside share must lie in \(0, 1\]"):
        invert_shares([0.5], outside)


@pytest.mark.parametrize("quantities, market_size, message", [
    ([10.0, np.nan], 100.0, "quantities must be finite"),
    ([10.0, np.inf], 100.0, "quantities must be finite"),
    ([10.0, -5.0], 100.0, "quantities must be non-negative"),
    ([10.0], 0.0, "market_size must be positive and finite"),
    ([10.0], np.inf, "market_size must be positive and finite"),
    ([10.0], np.nan, "market_size must be positive and finite"),
], ids=["nan_quantity", "inf_quantity", "negative_quantity", "zero_size", "inf_size", "nan_size"])
def test_quantities_and_market_sizes_out_of_domain_are_refused(quantities, market_size, message):
    with pytest.raises(ValueError, match=message):
        shares_from_quantities(quantities, market_size)
