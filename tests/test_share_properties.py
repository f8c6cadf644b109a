"""The share layer and panel validation as properties over random multi-period panels.

Rows are unit-major (every period of the first unit, then the next unit), so
periods interleave and a per-period computation has to gather its rows. Some
cells are dropped, so periods differ in their product counts, and period labels
are sorted but not consecutive. Everything goes through `PanelDataset`,
`compute_dependent` and `generate_market`.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logitdemand.dataio import DEPENDENT_COLUMN, PanelDataset, compute_dependent
from logitdemand.errors import DomainViolationError, DuplicateKeyError
from logitdemand.simulate import DgpParams, generate_market

EPS = np.finfo(float).eps


def _cells(rng, n_units, n_periods, drop_share):
    """Unit-major (unit, period) codes with a random share of cells dropped."""
    u = np.repeat(np.arange(n_units), n_periods)
    t = np.tile(np.arange(n_periods), n_units)
    keep = rng.random(u.size) >= drop_share
    keep[0] = True
    return u[keep], t[keep]


@st.composite
def quantity_panels(draw):
    """Raw panel fields: unit and period labels, quantities and per-row market sizes."""
    n_units = draw(st.integers(1, 8))
    n_periods = draw(st.integers(1, 6))
    drop_share = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    u, t = _cells(rng, n_units, n_periods, drop_share)
    years = np.sort(rng.choice(np.arange(1990, 2040), n_periods, replace=False))
    outside = 10.0 ** rng.uniform(-6.0, np.log10(0.9), n_periods)
    weight = rng.gamma(1.0, size=u.size) + 0.05
    per_period = np.bincount(t, weights=weight, minlength=n_periods)
    share = weight / per_period[t] * (1.0 - outside[t])
    size = 10.0 ** rng.uniform(2.0, 7.0, n_periods)
    return {
        "units": [f"u{i:02d}" for i in u],
        "periods": [int(y) for y in years[t]],
        "quantity": share * size[t],
        "market_size": size[t],
    }


def _dataset(raw, order=None):
    order = np.arange(len(raw["units"])) if order is None else order
    return PanelDataset.from_rows(
        units=tuple(raw["units"][i] for i in order),
        periods=tuple(raw["periods"][i] for i in order),
        columns={"quantity": raw["quantity"][order], "market_size": raw["market_size"][order]},
    )


def _oracle(raw):
    """ln(q/N) - ln(1 - sum over the period of q/N), and that period's outside share per row."""
    s = raw["quantity"] / raw["market_size"]
    _, t = np.unique(np.array(raw["periods"]), return_inverse=True)
    outside = 1.0 - np.bincount(t, weights=s)
    return np.log(s) - np.log(outside[t]), outside[t], np.bincount(t)[t]


def _tolerance(outside, n_products):
    # Only the inside shares are data, so 1 - sum(s) carries about (J + 1) eps.
    return 1e-10 + (n_products + 1) * EPS / outside


def _label(raw, i):
    return f"row {i} (unit {raw['units'][i]!r}, period {raw['periods'][i]})"


@settings(max_examples=50)
@given(quantity_panels())
def test_dependent_matches_numpy_oracle(raw):
    delta = compute_dependent(_dataset(raw)).column(DEPENDENT_COLUMN)
    expected, outside, n_products = _oracle(raw)
    assert np.all(np.abs(delta - expected) <= _tolerance(outside, n_products))


@settings(max_examples=50)
@given(quantity_panels(), st.integers(0, 2**32 - 1))
def test_dependent_ignores_row_order(raw, seed):
    perm = np.random.default_rng(seed).permutation(len(raw["units"]))
    base = compute_dependent(_dataset(raw)).column(DEPENDENT_COLUMN)
    permuted = compute_dependent(_dataset(raw, perm)).column(DEPENDENT_COLUMN)
    _, outside, n_products = _oracle(raw)
    assert np.all(np.abs(permuted - base[perm]) <= _tolerance(outside, n_products)[perm])


@settings(max_examples=50)
@given(quantity_panels())
def test_inversion_then_prediction_returns_the_shares(raw):
    delta = compute_dependent(_dataset(raw)).column(DEPENDENT_COLUMN)
    s = raw["quantity"] / raw["market_size"]
    periods = np.array(raw["periods"])
    for year in np.unique(periods):
        rows = np.flatnonzero(periods == year)
        # One period whose mean utilities are exactly the unit effects.
        params = DgpParams(n_products=rows.size, n_periods=1, n_characteristics=0, beta=(),
                           alpha=0.0, xi_scale=0.0, unit_effects=tuple(delta[rows]),
                           instrument_strength=0.0, price_noise_scale=0.0, seed=0)
        _, truth = generate_market(params)
        assert np.max(np.abs(truth.inside_shares - s[rows])) <= 1e-10
        assert abs(truth.outside_shares[2001] - (1.0 - s[rows].sum())) <= 1e-10


# --- one or more bad periods -------------------------------------------------

@st.composite
def bad_panels(draw):
    """A valid panel with 1-3 periods corrupted by one kind of fault."""
    raw = draw(quantity_panels())
    kind = draw(st.sampled_from(["conflicting", "saturated", "missing", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = np.array(raw["periods"])
    years, counts = np.unique(periods, return_counts=True)
    # A conflict or a duplicate needs two rows in the period.
    candidates = years if kind in ("saturated", "missing") else years[counts >= 2]
    assume(candidates.size >= 1)
    bad = rng.choice(candidates, size=int(rng.integers(1, min(3, candidates.size) + 1)),
                     replace=False)
    for year in bad:
        rows = np.flatnonzero(periods == year)
        first, other = rng.choice(rows, size=2, replace=rows.size < 2)
        if kind == "conflicting":
            raw["market_size"][other] *= 1.5
        elif kind == "saturated":
            raw["quantity"][other] += raw["market_size"][other]
        elif kind == "missing":
            raw[str(rng.choice(["quantity", "market_size"]))][other] = np.nan
        else:
            raw["units"][other] = raw["units"][first]
    return raw, kind, sorted(int(y) for y in bad)


@settings(max_examples=50)
@given(bad_panels())
def test_bad_period_is_named(case):
    raw, kind, bad = case
    periods = np.array(raw["periods"])

    if kind == "duplicate":
        seen = set()
        for unit, period in zip(raw["units"], raw["periods"]):
            if (unit, period) in seen:
                break
            seen.add((unit, period))
        with pytest.raises(DuplicateKeyError) as err:
            _dataset(raw)
        assert (err.value.unit, err.value.period) == (unit, period)
        return

    first_row = int(np.flatnonzero(periods == bad[0])[0])
    if kind == "missing":
        data = _dataset(raw)
        with pytest.raises(DomainViolationError) as err:
            compute_dependent(data)
        missing = np.isnan(raw["quantity"]) | np.isnan(raw["market_size"])
        row = int(np.flatnonzero(missing & (periods == bad[0]))[0])
        assert err.value.column == "quantity"
        assert err.value.row == _label(raw, row)
        assert f"period {bad[0]}: missing quantity or market size" in str(err.value)
        return

    with pytest.raises(DomainViolationError) as err:
        _dataset(raw)
    assert err.value.row == _label(raw, first_row)
    if kind == "conflicting":
        assert err.value.column == "market_size"
        assert f"period {bad[0]} carries conflicting market sizes" in str(err.value)
    else:
        assert err.value.column == "quantity"
        assert f"period {bad[0]}: total quantity" in str(err.value)
