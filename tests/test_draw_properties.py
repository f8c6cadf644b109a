"""Market draws against the per-replication draw loop they replaced, bit for bit.

`_reference_draw` is the one-market draw the Monte Carlo used before markets
were drawn a chunk at a time: on its own generator it draws the normals, then
the per-period multinomials when `consumers` is set, and rejects and draws
again until the shares clear 1e-12, giving up with `DegenerateSharesError`
after 100 draws. Every market of a chunk must come out of `simulate` with
the same columns, mean utilities, shares and re-draw count to the last bit,
and a market the reference gives up on must be given up on too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand import demand, simulate
from logitdemand.errors import DegenerateSharesError
from logitdemand.simulate import DgpParams, replication_seeds


def _reference_draw(params, rng):
    """(columns, delta, inside shares, outside shares, re-draws) of one market drawn from `rng`."""
    j, t, k = params.n_products, params.n_periods, params.n_characteristics
    n = j * t
    unit_eff = np.array(params.unit_effects) if params.unit_effects else np.zeros(j)
    time_eff = np.array(params.time_effects) if params.time_effects else np.zeros(t)

    for attempt in range(100):
        x = rng.normal(params.characteristic_loc, params.characteristic_scale, (n, k)) \
            if k else np.zeros((n, 0))
        costs = rng.normal(0.0, 1.0, (n, params.n_instruments))
        dxi = rng.normal(0.0, params.xi_scale, n) if params.xi_scale > 0 else np.zeros(n)
        noise = rng.normal(0.0, params.price_noise_scale, n) \
            if params.price_noise_scale > 0 else np.zeros(n)

        unit_idx = np.repeat(np.arange(j), t)
        time_idx = np.tile(np.arange(t), j)
        xi = unit_eff[unit_idx] + time_eff[time_idx] + dxi
        price = (
            params.instrument_strength * costs.sum(axis=1)
            + params.price_endogeneity * xi
            + noise
        )
        delta = (x @ np.array(params.beta) if k else np.zeros(n)) - params.alpha * price + xi

        inside, outside = demand.predict_shares(delta, time_idx)
        by_period = inside.reshape(j, t).T
        degenerate = (outside < 1e-12) | (by_period.min(axis=1) < 1e-12)
        if params.consumers is None:
            if np.any(degenerate):
                continue
            quantity = inside
            market_size = np.ones(n)
        else:
            counts = []
            for ti in range(t):
                if degenerate[ti]:
                    break
                probs = np.append(by_period[ti], outside[ti])
                draw = rng.multinomial(params.consumers, probs / probs.sum())
                if np.any(draw == 0):
                    break
                counts.append(draw[:-1])
            if len(counts) < t:
                continue
            quantity = np.array(counts).T.reshape(-1)
            market_size = np.full(n, float(params.consumers))

        columns = {name: x[:, i] for i, name in enumerate(params.characteristic_names())}
        columns["price"] = price
        for i, name in enumerate(params.instrument_names()):
            columns[name] = costs[:, i]
        columns["quantity"] = quantity
        columns["market_size"] = market_size
        return columns, delta, inside, outside, attempt

    raise DegenerateSharesError("no draw produced shares above 1e-12 within 100 attempts")


def _draw_chunk(params, seeds):
    """Each market of the chunk as `_reference_draw` returns it, or None where it gave up."""
    columns, delta, inside, outside, redraws = simulate.draw_markets(params, seeds)
    return [None if redraws[r] == 100 else
            ({name: values[r] for name, values in columns.items()}, delta[r], inside[r],
             outside[r], redraws[r])
            for r in range(len(seeds))]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_chunk_matches(params, seeds):
    """Check every market of the chunk against the reference; returns the reference outcomes."""
    reference = []
    for seed in seeds:
        try:
            reference.append(_reference_draw(params, np.random.default_rng(seed)))
        except DegenerateSharesError:
            reference.append(None)
    got = _draw_chunk(params, seeds)
    assert len(got) == len(reference)
    for market, want in zip(got, reference):
        assert (market is None) == (want is None)
        if want is None:
            continue
        columns, delta, inside, outside, redraws = market
        assert redraws == want[4]
        assert list(columns) == list(want[0])
        for name, values in want[0].items():
            assert _same_bits(columns[name], values), name
        for got_array, want_array in zip((delta, inside, outside), want[1:4]):
            assert _same_bits(got_array, want_array)
    return reference


@st.composite
def chunks(draw):
    k = draw(st.integers(0, 2))
    j, t = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    # Large effects push the outside share toward 1e-12: re-draws, and give-ups after 100.
    effects = st.sampled_from([None, 1.0, 30.0])
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
        xi_scale=draw(st.sampled_from([0.0, 0.5, 1.0])),
        price_endogeneity=draw(st.floats(0.0, 1.0)),
        instrument_strength=draw(st.sampled_from([0.0, 0.5, 2.0])),
        # Nine or more cost shifters take numpy's pairwise summation path in the price sum.
        n_instruments=draw(st.sampled_from([1, 2, 3, 9, 12])),
        # Few consumers over many products often leave one without a sale: a re-draw.
        consumers=draw(st.sampled_from([None, None, 5, 40, 1000])),
        characteristic_scale=draw(st.sampled_from([1.0, 1.0, 0.0])),
        characteristic_loc=draw(st.sampled_from([0.0, 1.0])),
        price_noise_scale=draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return params, replication_seeds(params.seed, draw(st.integers(1, 8)))


@settings(max_examples=150)
@given(chunks())
def test_chunk_draws_match_the_per_replication_draws(case):
    _assert_chunk_matches(*case)


@pytest.mark.parametrize("params", [
    # Forty consumers over five products: zero sales, so re-draws that continue the stream
    # after some periods' multinomials were already drawn.
    DgpParams(n_products=5, n_periods=3, n_characteristics=1, beta=(1.0,), xi_scale=0.5,
              price_endogeneity=0.5, consumers=40, seed=11),
    # Utility near 29 leaves the outside share near 1e-12: many re-draws, some give-ups.
    DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(1.0,), xi_scale=1.0,
              unit_effects=(29.0, 0.0, 0.0), seed=5),
    # Utility 40 leaves the outside share near 4e-18: every market gives up after 100 draws.
    DgpParams(n_products=2, n_periods=2, n_characteristics=0, beta=(), xi_scale=0.1,
              unit_effects=(40.0, 0.0), seed=9),
])
def test_redraws_and_give_ups_match_the_per_replication_draws(params):
    seeds = replication_seeds(params.seed, 25)
    reference = _assert_chunk_matches(params, seeds)
    for seed, market in zip(seeds, reference):
        if market is None:  # a single panel on that seed gives up the same way
            with pytest.raises(DegenerateSharesError, match="within 100 attempts"):
                simulate.generate_market(dataclasses.replace(params, seed=seed))
    accepted = [market for market in reference if market is not None]
    if params.unit_effects == (40.0, 0.0):
        assert not accepted
    else:
        assert sum(market[4] for market in accepted) > 0
    if params.unit_effects == (29.0, 0.0, 0.0):
        assert 0 < len(accepted) < len(reference)
