"""Multinomial logit share layer.

Observed quantities become market shares, shares invert analytically into
mean utilities (log s_jt - log s_0t with the outside utility normalized to
zero), and mean utilities map back to predicted shares in closed form. The
share denominator includes the outside option's exp(0) = 1, which is the only
convention under which inversion and prediction are exact inverses.

The functions work on flat arrays: one entry per (product, period) row, plus
an optional vector of period codes 0 .. T-1 per row. Per-period values (market
size, outside share) are arrays of length T indexed by code. Without codes
every row belongs to one period.
"""

from __future__ import annotations

import numpy as np

from .errors import OutsideShareNonPositiveError, ZeroQuantityError

_SHARE_SUM_TOL = 1e-12


def _rows(values, codes):
    """Flat float values, each row's period code and the period count; no codes: one period."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if codes is None:
        return values, np.zeros(values.shape[0], dtype=np.intp), 1
    codes = np.asarray(codes).reshape(-1)
    return values, codes, int(codes.max()) + 1 if codes.size else 0


def _check_shares(inside, outside, codes):
    # Strictly positive so logs exist; the top is closed because a share
    # one ulp below 1.0 collapses to 1.0 in float64 at extreme utilities.
    if not (np.all(inside > 0.0) and np.all(inside <= 1.0)):
        raise ValueError("inside shares must lie in (0, 1]")
    if not (np.all(outside > 0.0) and np.all(outside <= 1.0)):
        raise ValueError("outside share must lie in (0, 1]")
    total = np.bincount(codes, weights=inside, minlength=outside.shape[0]) + outside
    if np.any(np.abs(total - 1.0) > _SHARE_SUM_TOL):
        raise ValueError("shares must sum to one")


def shares_from_quantities(quantities, market_size, codes=None):
    """Observed shares s_jt = q_jt / N_t with outside share 1 - sum per period.

    `market_size` holds N_t per period code, or one N for every period.
    Returns (inside shares per row, outside share per period).
    """
    q, codes, n_periods = _rows(quantities, codes)
    size = np.broadcast_to(np.asarray(market_size, dtype=float), (n_periods,))
    if not np.all(np.isfinite(q)):
        raise ValueError("quantities must be finite")
    if not np.all((size > 0) & np.isfinite(size)):
        raise ValueError("market_size must be positive and finite")
    if np.any(q == 0):
        i = int(np.argmax(q == 0))
        raise ZeroQuantityError(f"zero quantity in row {i}; log share undefined")
    if np.any(q < 0):
        raise ValueError("quantities must be non-negative")
    total = np.bincount(codes, weights=q, minlength=n_periods)
    if np.any(total >= size):
        t = int(np.argmax(total >= size))
        raise OutsideShareNonPositiveError(
            f"period code {t}: total quantity {total[t]:g} >= market size "
            f"{size[t]:g}; outside share must stay positive"
        )
    inside = q / size[codes]
    outside = 1.0 - np.bincount(codes, weights=inside, minlength=n_periods)
    _check_shares(inside, outside, codes)
    return inside, outside


def invert_shares(inside, outside, codes=None):
    """Analytic inversion: delta_jt = log s_jt - log s_0t.

    `outside` holds s_0t per period code, or one value for every period;
    the shares of each period must sum to one within 1e-12.
    """
    s, codes, n_periods = _rows(inside, codes)
    s0 = np.broadcast_to(np.asarray(outside, dtype=float), (n_periods,))
    _check_shares(s, s0, codes)
    return np.log(s) - np.log(s0)[codes]


def predict_shares(delta, codes=None):
    """Closed-form logit shares; returns (inside shares per row, outside share per period).

    s_jt = exp(delta_jt) / (1 + sum_k exp(delta_kt)); the 1 is the outside
    option's exp(0). Each period is evaluated with its own max shift, so
    |delta| up to ~700 is safe.
    """
    d, codes, n_periods = _rows(delta, codes)
    if not np.all(np.isfinite(d)):
        raise ValueError("mean utilities must be finite")
    shift = np.zeros(n_periods)
    np.maximum.at(shift, codes, d)
    expd = np.exp(d - shift[codes])
    base = np.exp(-shift)
    denom = base + np.bincount(codes, weights=expd, minlength=n_periods)
    return expd / denom[codes], base / denom

