"""Synthetic logit markets with endogenous prices, and a Monte Carlo harness.

The data-generating process mirrors the estimation model: mean utility is
x'beta - alpha * price + xi, with xi = unit effect + period effect + noise.
Price loads on cost shifters (the instruments) and, through the endogeneity
weight, on xi itself, so OLS is inconsistent while 2SLS is not. Everything is
driven by a single seed; the Monte Carlo spawns one independent seed per
replication from it with numpy's SeedSequence, so runs with different seeds
share no market. It fits every estimator, two-way fixed effects included, on
stacks of markets through the regression code of a single panel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dataio, demand, diagnostics, estimators
from .errors import DegenerateSharesError, LogitDemandError

_MIN_SHARE = 1e-12
_MAX_REDRAWS = 100
_CHOICE_BLOCK = 200_000
#: Rows per stacked Monte Carlo chunk; bounds the memory of the chunk's designs.
_STACK_ROWS = 5_000


@dataclass(frozen=True)
class DgpParams:
    """Knobs of the synthetic market generator.

    `alpha` enters utility as -alpha * price. With `consumers` unset the
    generator emits exact logit shares (market_size 1.0); with it set,
    quantities are sampled for that many consumers per period.
    """

    n_products: int
    n_periods: int
    n_characteristics: int = 1
    beta: tuple = (1.0,)
    alpha: float = 1.0
    xi_scale: float = 0.0
    unit_effects: tuple | None = None
    time_effects: tuple | None = None
    price_endogeneity: float = 0.0
    instrument_strength: float = 1.0
    n_instruments: int = 2
    consumers: int | None = None
    seed: int = 0
    characteristic_loc: float = 0.0
    characteristic_scale: float = 1.0
    cost_loc: float = 0.0
    cost_scale: float = 1.0
    price_intercept: float = 0.0
    price_noise_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if self.n_products < 1 or self.n_periods < 1:
            raise ValueError("need at least one product and one period")
        if self.n_characteristics < 0 or len(self.beta) != self.n_characteristics:
            raise ValueError("beta must have one entry per characteristic")
        if self.n_instruments < 1:
            raise ValueError("need at least one cost shifter")
        for name in ("xi_scale", "instrument_strength", "characteristic_scale",
                     "cost_scale", "price_noise_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative (it enters utility as -alpha * price)")
        if self.consumers is not None and self.consumers < 1:
            raise ValueError("consumers must be at least 1 when set")
        for name, length in (("unit_effects", self.n_products), ("time_effects", self.n_periods)):
            eff = getattr(self, name)
            if eff is not None:
                eff = tuple(float(v) for v in eff)
                object.__setattr__(self, name, eff)
                if len(eff) != length:
                    raise ValueError(f"{name} must have length {length}")

    def characteristic_names(self):
        return tuple(f"x{i + 1}" for i in range(self.n_characteristics))

    def instrument_names(self):
        return tuple(f"cost{i + 1}" for i in range(self.n_instruments))

    def true_coefficients(self):
        """True values of the estimating equation's coefficients.

        The intercept's truth is zero: xi is zero-mean noise (plus any fixed
        effects, which bias the intercept but not the slopes), and the price
        intercept acts through the price coefficient.
        """
        truths = {estimators.INTERCEPT_NAME: 0.0}
        for name, b in zip(self.characteristic_names(), self.beta):
            truths[name] = b
        truths["price"] = -self.alpha
        return truths


@dataclass(frozen=True)
class TrueMarket:
    """Ground truth behind a generated dataset, aligned to its rows."""

    params: DgpParams
    delta: np.ndarray
    xi: np.ndarray
    inside_shares: np.ndarray
    outside_shares: dict

    def true_coefficients(self):
        return self.params.true_coefficients()


@dataclass(frozen=True)
class McSummary:
    """Aggregated Monte Carlo results; deterministic for a fixed (params, R).

    `failures` counts the failed replications by error class name; `redraws`
    totals the draws that `draw_market` rejected and drew again.
    """

    replications: int
    completed: int
    failed: int
    failures: dict
    redraws: int
    coefficient_names: tuple
    true_values: dict
    mean_bias: dict
    mean_bias_se: dict
    rmse: dict
    ci_coverage_95: dict
    mean_first_stage_f: float
    sargan_rejection_rate: float


def _gumbel(rng, shape):
    # Inverse-CDF Gumbel draws: exact, portable, reproducible.
    u = np.maximum(rng.random(shape), 1e-300)
    return -np.log(-np.log(u))


def sample_choices(delta, consumers, rng=None):
    """Simulate discrete choices for `consumers` individuals.

    Each consumer picks the option maximizing delta_j + Gumbel noise, with the
    outside option's utility fixed at zero. Returns (inside_counts,
    outside_count); frequencies converge to the closed-form logit shares.
    """
    d = np.asarray(delta, dtype=float).reshape(-1)
    if not np.all(np.isfinite(d)):
        raise ValueError("mean utilities must be finite")
    if consumers < 1:
        raise ValueError("need at least one consumer")
    if rng is None:
        rng = np.random.default_rng()

    base = np.concatenate([[0.0], d])
    counts = np.zeros(base.shape[0], dtype=np.int64)
    remaining = int(consumers)
    while remaining > 0:
        block = min(remaining, _CHOICE_BLOCK)
        noise = _gumbel(rng, (block, base.shape[0]))
        picks = np.argmax(base[None, :] + noise, axis=1)
        counts += np.bincount(picks, minlength=base.shape[0])
        remaining -= block
    return counts[1:].copy(), int(counts[0])


def draw_market(params: DgpParams, rng):
    """Draw one market's arrays from `rng`; returns (columns, TrueMarket, redraws).

    `columns` maps each generated column to its values, one row per (product,
    period), units outer and periods inner. `params.seed` is not read: the
    draw uses `rng` alone. A draw whose inside or outside share falls below
    1e-12 (or whose sampled quantities hit zero) is rejected and drawn again,
    up to a bounded retry count; `redraws` counts the rejected draws.
    """
    j, t, k = params.n_products, params.n_periods, params.n_characteristics
    n = j * t
    unit_eff = np.array(params.unit_effects) if params.unit_effects else np.zeros(j)
    time_eff = np.array(params.time_effects) if params.time_effects else np.zeros(t)

    for attempt in range(_MAX_REDRAWS):
        x = rng.normal(params.characteristic_loc, params.characteristic_scale, (n, k)) \
            if k else np.zeros((n, 0))
        costs = rng.normal(params.cost_loc, params.cost_scale, (n, params.n_instruments))
        dxi = rng.normal(0.0, params.xi_scale, n) if params.xi_scale > 0 else np.zeros(n)
        noise = rng.normal(0.0, params.price_noise_scale, n) \
            if params.price_noise_scale > 0 else np.zeros(n)

        # Row order: unit-major, periods inside, matching the loader's sort.
        unit_idx = np.repeat(np.arange(j), t)
        time_idx = np.tile(np.arange(t), j)
        xi = unit_eff[unit_idx] + time_eff[time_idx] + dxi
        price = (
            params.price_intercept
            + params.instrument_strength * costs.sum(axis=1)
            + params.price_endogeneity * xi
            + noise
        )
        delta = (x @ np.array(params.beta) if k else np.zeros(n)) - params.alpha * price + xi

        inside, outside = demand.predict_shares(delta, time_idx)
        by_period = inside.reshape(j, t).T
        degenerate = (outside < _MIN_SHARE) | (by_period.min(axis=1) < _MIN_SHARE)
        if params.consumers is None:
            if np.any(degenerate):
                continue
            quantity = inside
            market_size = np.ones(n)
        else:
            # One multinomial draw per period, in period order, up to the first
            # degenerate period or failed draw: the re-draw continues the stream.
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
        truth = TrueMarket(
            params=params, delta=delta, xi=xi, inside_shares=inside,
            outside_shares=dict(zip(range(2001, 2001 + t), outside.tolist())),
        )
        return columns, truth, attempt

    raise DegenerateSharesError(
        f"no draw produced shares above {_MIN_SHARE:g} within {_MAX_REDRAWS} attempts"
    )


def generate_market(params: DgpParams):
    """Draw one synthetic panel; returns (PanelDataset, TrueMarket).

    Output is identical for identical seeds: `draw_market` on
    `default_rng(params.seed)`, as a panel of units P01, P02, ... and periods
    2001, 2002, ...
    """
    columns, truth, _ = draw_market(params, np.random.default_rng(params.seed))
    return _as_panel(params, columns), truth


def _as_panel(params: DgpParams, columns) -> dataio.PanelDataset:
    j, t = params.n_products, params.n_periods
    width = max(2, len(str(j)))
    units = [f"P{i + 1:0{width}d}" for i in range(j)]
    return dataio.PanelDataset(
        units=tuple(units[i] for i in np.repeat(np.arange(j), t)),
        periods=(2001 + np.tile(np.arange(t), j)).tolist(),
        columns=columns,
        column_kinds={},
    )


def default_model_spec(params: DgpParams, estimator="tsls", covariance=None) -> estimators.ModelSpec:
    """The estimating equation implied by the generator's column names."""
    options = estimators.estimator_defaults(estimator)
    if covariance is not None:
        options["covariance"] = covariance
    return estimators.ModelSpec(
        dependent=dataio.DEPENDENT_COLUMN,
        exogenous_regressors=params.characteristic_names(),
        endogenous_regressors=("price",),
        instruments=params.instrument_names() if estimator == "tsls" else (),
        estimator=estimator,
        **options,
    )


def replication_seeds(seed: int, replications: int) -> list:
    """One independent seed per replication, spawned from `seed` by numpy's SeedSequence."""
    children = np.random.SeedSequence(seed).spawn(replications)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def run_monte_carlo(params: DgpParams, spec: estimators.ModelSpec | None = None,
                    replications: int = 100) -> McSummary:
    """Generate, estimate and test `replications` markets; aggregate the results.

    Replication r draws its market from `default_rng` on the r-th seed of
    `replication_seeds(params.seed, replications)`. Replications are fitted
    in chunks of at most `_STACK_ROWS` (5,000) rows, inverted together and
    fitted by the regression code of a single panel (`estimators.absorb` and
    `pooled_fit`, `diagnostics.first_stage_stats`, `sargan_stats`) with one
    stacked LAPACK QR per regression. A replication whose draw raises, whose
    chunk fails a share check or a fit, whose fits are not certified full
    rank or whose F or J is not finite is fitted again on its own panel by
    `estimate`, `first_stage_f` and `sargan_j` with the pivoted QR, failures
    included. The two solvers agree within 1e-10 relative (about 1e-15 in
    practice).

    Per-replication estimator failures are counted by error class, not fatal.
    Coverage uses the +-1.96 * SE interval per coefficient.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if spec is None:
        spec = default_model_spec(params)
    records = _replications(params, spec, replication_seeds(params.seed, replications))
    return _summarize(params, replications, records)


class _Replication(NamedTuple):
    """One replication's outcome; a failed one names its error class in `failure`.

    A first-stage F computed before a later step failed is kept: the summary's
    mean F has always counted it.
    """

    names: tuple = ()
    coefficients: np.ndarray | None = None
    standard_errors: np.ndarray | None = None
    first_stage_f: float | None = None
    sargan_j: float | None = None
    sargan_p_value: float | None = None
    redraws: int = 0
    failure: str | None = None


def _reported_tests(spec: estimators.ModelSpec):
    """Whether a replication reports the first-stage F and the Sargan J: F for one endogenous
    regressor with instruments, J besides for an over-identified 2SLS spec."""
    has_f = bool(spec.instruments) and len(spec.endogenous_regressors) == 1
    return has_f, has_f and spec.estimator == "tsls" and len(spec.instruments) > 1


def _replicate(params: DgpParams, spec: estimators.ModelSpec, rep_seed: int) -> _Replication:
    """One replication fitted on its own panel: the reference the stacked chunks must match."""
    f = j = p_value = None
    redraws = 0
    has_f, has_j = _reported_tests(spec)
    try:
        columns, _, redraws = draw_market(params, np.random.default_rng(rep_seed))
        data = dataio.compute_dependent(_as_panel(params, columns))
        result = estimators.estimate(spec, data)
        if has_f:
            f = diagnostics.first_stage_f(spec, data).f_statistic
        if has_j:
            j_report = diagnostics.sargan_j(result, spec, data)
            j, p_value = j_report.j_statistic, j_report.p_value
    except LogitDemandError as exc:
        return _Replication(first_stage_f=f, redraws=redraws, failure=type(exc).__name__)
    return _Replication(result.names, result.coefficients, result.standard_errors,
                        f, j, p_value, redraws)


def _replications(params: DgpParams, spec: estimators.ModelSpec, seeds) -> list:
    """Every replication's outcome in seed order, in stacked chunks if the spec's columns are drawn."""
    generated = {*params.characteristic_names(), "price", *params.instrument_names(),
                 "quantity", "market_size", dataio.DEPENDENT_COLUMN}
    if not {spec.dependent, *spec.regressors, *spec.instruments} <= generated:
        return [_replicate(params, spec, seed) for seed in seeds]
    per_chunk = max(1, _STACK_ROWS // (params.n_products * params.n_periods))
    records = []
    for start in range(0, len(seeds), per_chunk):
        records += _fit_chunk(params, spec, seeds[start:start + per_chunk])
    return records


def _fit_chunk(params: DgpParams, spec: estimators.ModelSpec, seeds) -> list:
    """One chunk's outcomes: stacked fits, and `_replicate` for every replication they miss."""
    draws = []
    redraws = {}
    for i, seed in enumerate(seeds):
        try:
            columns, _, redraws[i] = draw_market(params, np.random.default_rng(seed))
        except Exception:  # `_replicate` draws it again, and fails or raises in seed order
            continue
        draws.append(columns)
    records = [None] * len(seeds)
    if draws:
        columns = {name: np.stack([d[name] for d in draws]) for name in draws[0]}
        del draws, _  # only the stacked columns and the re-draw counts stay while the fits run
        try:
            columns[dataio.DEPENDENT_COLUMN] = _stacked_dependent(columns, params.n_periods)
            stacked = _fit_stack(spec, columns, params.n_periods)
        except (LogitDemandError, ValueError):
            pass  # a share check or a fit raised: the whole chunk goes through `_replicate`
        else:
            for i, record in zip(redraws, stacked):
                if record is not None:
                    records[i] = record._replace(redraws=redraws[i])
    return [_replicate(params, spec, seed) if record is None else record
            for seed, record in zip(seeds, records)]


def _stacked_dependent(columns, n_periods):
    """`compute_dependent` for a stack of markets: one inversion, period codes r * T + t."""
    stack, n = columns["quantity"].shape
    codes = np.arange(stack)[:, None] * n_periods + np.tile(np.arange(n_periods), n // n_periods)
    codes = codes.reshape(-1)
    market_size = np.empty(stack * n_periods)
    market_size[codes] = columns["market_size"].reshape(-1)
    inside, outside = demand.shares_from_quantities(columns["quantity"].reshape(-1), market_size, codes)
    return demand.invert_shares(inside, outside, codes).reshape(stack, n)


def _fit_stack(spec: estimators.ModelSpec, columns, n_periods) -> list:
    """The code `estimate`, `first_stage_f` and `sargan_j` share, on every market of a stack
    whose rows run over units, `n_periods` periods inside; None where a market's fits are not
    certified full rank or its F or J is not finite."""
    rows = np.arange(columns[spec.dependent].shape[-1])
    fit_spec, fit_columns, absorbed = estimators.absorb(spec, columns, rows // n_periods,
                                                        rows % n_periods)
    names, coefficients, covariance, residuals, _, _, certified = estimators.pooled_fit(
        fit_spec, fit_columns, absorbed)
    stack = len(certified)
    lead = len(fit_spec.regressors) - len(spec.regressors)  # the absorbed period dummies
    f = j = p_value = [None] * stack
    has_f, has_j = _reported_tests(spec)
    if has_f:
        f, _, _, ok = diagnostics.first_stage_stats(spec, columns)
        certified = certified & ok & np.isfinite(f)
    if has_j:
        j, p_value, *_, ok = diagnostics.sargan_stats(spec, columns, residuals)
        certified = certified & ok & np.isfinite(j)
    se = estimators.standard_errors(covariance)
    return [
        _Replication(names[lead:], coefficients[r, lead:], se[r, lead:], _float(f[r]),
                     _float(j[r]), _float(p_value[r])) if certified[r] else None
        for r in range(stack)
    ]


def _float(value):
    return None if value is None else float(value)


def _summarize(params: DgpParams, replications: int, records) -> McSummary:
    completed = [r for r in records if r.failure is None]
    failures = dict(sorted(Counter(r.failure for r in records if r.failure is not None).items()))
    if not completed:
        by_class = ", ".join(f"{name} {count}" for name, count in failures.items())
        raise DegenerateSharesError(f"every replication failed ({by_class}); nothing to summarize")
    f_stats = [r.first_stage_f for r in records if r.first_stage_f is not None]
    sargan_rejects = [r.sargan_p_value < 0.05 for r in completed if r.sargan_p_value is not None]

    names = completed[-1].names
    est = np.vstack([r.coefficients for r in completed])
    se = np.vstack([r.standard_errors for r in completed])
    truths = params.true_coefficients()
    true_values = {name: truths.get(name, float("nan")) for name in names}
    truth_vec = np.array([true_values[name] for name in names])

    n_done = len(completed)
    bias = est.mean(axis=0) - truth_vec
    spread = est.std(axis=0, ddof=1) if n_done > 1 else np.zeros(len(names))
    rmse = np.sqrt(np.mean((est - truth_vec) ** 2, axis=0))
    covered = np.abs(est - truth_vec) <= 1.96 * se
    coverage = covered.mean(axis=0)

    return McSummary(
        replications=replications,
        completed=n_done,
        failed=replications - n_done,
        failures=failures,
        redraws=sum(r.redraws for r in records),
        coefficient_names=tuple(names),
        true_values=true_values,
        mean_bias={n: float(b) for n, b in zip(names, bias)},
        mean_bias_se={n: float(s / np.sqrt(n_done)) for n, s in zip(names, spread)},
        rmse={n: float(v) for n, v in zip(names, rmse)},
        ci_coverage_95={n: float(c) for n, c in zip(names, coverage)},
        mean_first_stage_f=float(np.mean(f_stats)) if f_stats else float("nan"),
        sargan_rejection_rate=float(np.mean(sargan_rejects)) if sargan_rejects else float("nan"),
    )
