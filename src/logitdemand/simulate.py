"""Synthetic logit markets with endogenous prices, and a Monte Carlo harness.

The data-generating process mirrors the estimation model: mean utility is
x'beta - alpha * price + xi, with xi = unit effect + period effect + noise.
Price loads on cost shifters (the instruments) and, through the endogeneity
weight, on xi itself, so OLS is inconsistent while 2SLS is not. Everything is
driven by a single seed; the Monte Carlo takes one independent seed per
replication from it, the children numpy's SeedSequence spawns, so runs with
different seeds share no market. It draws its markets a chunk at a time, each
from numpy's `default_rng(seed)` stream on its own seed, and fits every
estimator, two-way fixed effects included, on the chunk's stack through the
regression code of a single panel. The SeedSequence words behind both the
spawned seeds and the generators are computed here, for a whole chunk at once.
"""

from __future__ import annotations

import functools
import numbers
import operator
import sys
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import dataio, demand, diagnostics, estimators
from .errors import (
    CollinearWithFixedEffectsError,
    DegenerateSharesError,
    EstimationError,
    InsufficientObservationsError,
    RankDeficientError,
    UnknownColumnError,
)

_MIN_SHARE = 1e-12
_MAX_REDRAWS = 100
#: Rows per stacked Monte Carlo chunk; bounds the memory of the chunk's designs.
_STACK_ROWS = 5_000
# numpy's SeedSequence hash (O'Neill's seed_seq_fe): its pool, its mixing and its output.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class DgpParams:
    """Knobs of the synthetic market generator.

    `alpha` enters utility as -alpha * price. The cost shifters are standard
    normal, and price is `instrument_strength` times their sum plus
    `price_endogeneity` * xi plus noise. With `consumers` unset the
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
    price_noise_scale: float = 1.0

    def __post_init__(self):
        # Each field by its annotation: an integer, a finite number or a sequence of finite numbers.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("None"):
                continue
            if f.type.startswith("int") and (isinstance(value, bool)
                                             or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer")
            if f.type == "float" and not _is_finite(value):
                raise ValueError(f"{f.name} must be a finite number")
            if f.type.startswith("tuple"):
                if not isinstance(value, (list, tuple, np.ndarray)) or not all(map(_is_finite, value)):
                    raise ValueError(f"{f.name} must be a sequence of finite numbers")
                object.__setattr__(self, f.name, tuple(map(float, value)))
        if self.n_products < 1 or self.n_periods < 1:
            raise ValueError("need at least one product and one period")
        if self.n_characteristics < 0 or len(self.beta) != self.n_characteristics:
            raise ValueError("beta must have one entry per characteristic")
        if self.n_instruments < 1:
            raise ValueError("need at least one cost shifter")
        for name in ("seed", "xi_scale", "instrument_strength", "characteristic_scale",
                     "price_noise_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative (it enters utility as -alpha * price)")
        if self.consumers is not None and self.consumers < 1:
            raise ValueError("consumers must be at least 1 when set")
        if self.consumers is not None and self.consumers > np.iinfo(np.int64).max:
            raise ValueError("consumers must fit a 64-bit integer")
        for name, length in (("unit_effects", self.n_products), ("time_effects", self.n_periods)):
            if getattr(self, name) is not None and len(getattr(self, name)) != length:
                raise ValueError(f"{name} must have length {length}")

    def characteristic_names(self):
        return tuple(f"x{i + 1}" for i in range(self.n_characteristics))

    def instrument_names(self):
        return tuple(f"cost{i + 1}" for i in range(self.n_instruments))

    def true_coefficients(self):
        """True values of the estimating equation's coefficients.

        The intercept's truth is zero: xi is zero-mean noise (plus any fixed
        effects, which bias the intercept but not the slopes), and price has
        no intercept of its own.
        """
        truths = {estimators.INTERCEPT_NAME: 0.0}
        for name, b in zip(self.characteristic_names(), self.beta):
            truths[name] = b
        truths["price"] = -self.alpha
        return truths


def _is_finite(value) -> bool:
    """Whether `value` is a finite real number, not a bool (a huge int is compared, not converted)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True, eq=False)
class TrueMarket:
    """Ground truth behind a generated dataset, aligned to its rows."""

    params: DgpParams
    delta: np.ndarray
    inside_shares: np.ndarray
    outside_shares: dict


@dataclass(frozen=True)
class McSummary:
    """Aggregated Monte Carlo results; deterministic for a fixed (params, R).

    `failures` counts the failed replications by error class name; `redraws`
    totals the draws that `draw_markets` rejected and drew again.
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


def draw_markets(params: DgpParams, seeds):
    """Draw one market per seed, each on numpy's `default_rng(seed)` stream; `params.seed` is not read.

    Returns (columns, delta, inside shares, outside shares, redraws) with one
    leading row per seed: each column is (R, n), rows over units with periods
    inside, and the outside shares are (R, T). A market whose `redraws`
    reached `_MAX_REDRAWS` gave up; its rows hold its last rejected draw.

    Each market's generator comes from `_generators(seeds)` and starts where
    `default_rng(seed)` does. A draw is one `standard_normal` call per market,
    filling its row of one block in a fixed order: characteristics, cost
    shifters, then xi noise and price noise where their scale is above 0, each
    scaled in place to loc + scale * z, as `Generator.normal` computes it.
    With `consumers` set there follows one multinomial per period in period
    order, up to the first degenerate period or product without a sale.
    Prices, mean utilities and shares are computed for the whole chunk at
    once, with period codes r * T + t. A draw whose mean utilities are not all
    finite, whose inside or outside share falls below 1e-12 or whose sampled
    quantities hit zero is rejected, and that market draws again from its own
    generator. The columns of the normals are views of the block.
    """
    j, t, k, m = params.n_products, params.n_periods, params.n_characteristics, params.n_instruments
    n, stack = j * t, len(seeds)
    rngs = _generators(seeds)
    # (width, loc, scale) of each drawn part of a market's row of `block`, in draw order.
    parts = [(n * k, params.characteristic_loc, params.characteristic_scale), (n * m, 0.0, 1.0)]
    parts += [(n, 0.0, sd) for sd in (params.xi_scale, params.price_noise_scale) if sd > 0]
    widths = [width for width, *_ in parts]
    block = np.empty((stack, sum(widths)))
    views = np.split(block, np.cumsum(widths)[:-1], axis=1)
    x, costs = views[0].reshape(stack, n, k), views[1].reshape(stack, n, m)
    noises = iter(views[2:])
    dxi, noise = (next(noises) if sd > 0 else np.zeros((stack, n))
                  for sd in (params.xi_scale, params.price_noise_scale))
    price, delta, inside = (np.zeros((stack, n)) for _ in range(3))
    outside = np.empty((stack, t))
    quantity = inside if params.consumers is None else np.zeros((stack, n), dtype=np.int64)
    redraws = np.zeros(stack, dtype=np.int64)
    # Row order: unit-major, periods inside, matching the loader's sort.
    effects = np.add.outer(params.unit_effects or np.zeros(j), params.time_effects or np.zeros(t))
    codes = np.arange(stack)[:, None] * t + np.tile(np.arange(t), j)

    todo = np.arange(stack)
    for _ in range(_MAX_REDRAWS):
        for r in todo:
            rngs[r].standard_normal(out=block[r])
        rows = slice(None) if todo.size == stack else todo  # in place when every market draws

        # An overflow leaves a utility that is not finite or a share of 0: a rejected draw.
        with np.errstate(over="ignore", invalid="ignore"):
            for view, (_, loc, scale) in zip(views, parts):
                view[rows] *= scale
                view[rows] += loc
            xi = effects.reshape(-1) + dxi[todo]
            p = (params.instrument_strength * costs[todo].sum(axis=2) + params.price_endogeneity * xi
                 + noise[todo])
            d = (x[todo] @ np.array(params.beta) if k else np.zeros(p.shape)) - params.alpha * p + xi
            finite = np.isfinite(d)
            s, s0 = demand.predict_shares(np.where(finite, d, 0.0), codes[:todo.size])
        s, s0 = s.reshape(p.shape), s0.reshape(-1, t)
        price[todo], delta[todo], inside[todo], outside[todo] = p, d, s, s0
        degenerate = ((s0 < _MIN_SHARE) | (s.reshape(-1, j, t).min(axis=1) < _MIN_SHARE)
                      | ~finite.reshape(-1, j, t).all(axis=1))
        if params.consumers is None:
            drawn = ~degenerate.any(axis=1)
        else:
            drawn = np.zeros(todo.size, dtype=bool)
            for i, r in enumerate(todo):
                counts = quantity[r].reshape(j, t)
                for ti in range(t):
                    if degenerate[i, ti]:
                        break
                    probs = np.append(inside[r].reshape(j, t)[:, ti], s0[i, ti])
                    draw = rngs[r].multinomial(params.consumers, probs / probs.sum())
                    if np.any(draw == 0):
                        break
                    counts[:, ti] = draw[:-1]
                else:
                    drawn[i] = True
        todo = todo[~drawn]
        redraws[todo] += 1
        if not todo.size:
            break

    columns = {name: x[..., i] for i, name in enumerate(params.characteristic_names())}
    columns["price"] = price
    for i, name in enumerate(params.instrument_names()):
        columns[name] = costs[..., i]
    columns["quantity"] = quantity
    columns["market_size"] = np.full((stack, n), float(params.consumers or 1))
    return columns, delta, inside, outside, redraws


def generate_market(params: DgpParams):
    """Draw one synthetic panel; returns (PanelDataset, TrueMarket).

    Output is identical for identical seeds: `draw_markets` for a chunk of
    one market on `params.seed`, as a panel of units P01, P02, ... and
    periods 2001, 2002, ... Raises `DegenerateSharesError` if the market
    gave up re-drawing.
    """
    columns, *truth = draw_markets(params, [params.seed])
    delta, inside, outside, redraws = (values[0] for values in truth)
    if redraws == _MAX_REDRAWS:
        raise DegenerateSharesError(
            f"no draw produced shares above {_MIN_SHARE:g} within {_MAX_REDRAWS} attempts"
        )
    j, t = params.n_products, params.n_periods
    width = max(2, len(str(j)))
    data = dataio.PanelDataset(
        np.array([f"P{i + 1:0{width}d}" for i in range(j)], dtype=object), np.repeat(np.arange(j), t),
        np.arange(2001, 2001 + t), np.tile(np.arange(t), j),
        {name: values[0].astype(float) for name, values in columns.items()},
    )
    periods = range(2001, 2001 + t)
    return data, TrueMarket(params, delta, inside, dict(zip(periods, outside.tolist())))


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
    """One independent seed per replication: the first 64-bit word of each child that numpy's
    `SeedSequence(seed).spawn(replications)` makes, computed for all children at once.

    Child r's entropy is the seed's words, zero-padded to 4, then r as one more word, so
    `replications` may be at most 2**32.
    """
    if replications > 2**32:
        raise ValueError("replications must be at most 2**32")
    words = _words([operator.index(seed)])[0]
    entropy = np.column_stack([np.broadcast_to(words, (replications, words.size)),
                               np.arange(replications, dtype=np.uint32)])
    return _seed_state(entropy, 1)[:, 0].tolist()


def _generators(seeds) -> list:
    """numpy's `default_rng(seed)` for every seed, to the bit, from the words of `_seed_state`."""
    seeds = [operator.index(seed) for seed in seeds]
    counts = [_word_count(seed) for seed in seeds]
    state = np.empty((len(seeds), 4), dtype=np.uint64)
    # Seeds of one word count at a time: zero-padding is exact only up to 4 words.
    for count in set(counts):
        rows = [r for r, c in enumerate(counts) if c == count]
        state[rows] = _seed_state(_words([seeds[r] for r in rows]), 4)
    seed_state = _seed_state_type()
    return [np.random.Generator(np.random.PCG64(seed_state(row))) for row in state]


@functools.cache
def _seed_state_type():
    """The type of a seed's `SeedSequence(seed).generate_state(4, np.uint64)`, computed already:
    the one call PCG64 makes to seed itself. Built on first use, so that importing the package
    does not import numpy.random."""
    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state
    return SeedState


def _word_count(seed) -> int:
    """Words in a seed's SeedSequence entropy: its 32-bit words, zero-padded to the pool's 4."""
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {seed}")
    return max(_POOL_SIZE, -(-seed.bit_length() // 32))


def _words(seeds):
    """(B, L) little-endian 32-bit words of B int seeds of one word count L."""
    count = _word_count(max(seeds))
    return np.frombuffer(b"".join(seed.to_bytes(4 * count, "little") for seed in seeds),
                         dtype="<u4").reshape(-1, count)


def _hashmix(const, mult):
    """SeedSequence's hashmix, its multipliers running on from `const`: a call hashes each row of
    an (s, B) array of words with the next of s multipliers, which do not depend on the data."""
    def hashmix(values):
        nonlocal const
        consts = [const]
        for _ in values:
            const = const * mult & _MASK32
            consts.append(const)
        consts = np.array(consts, dtype=np.uint32)[:, None]
        values = (values ^ consts[:-1]) * consts[1:]
        return values ^ values >> np.uint32(16)
    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> np.uint32(16)


def _seed_state(entropy, n_words):
    """`SeedSequence(e).generate_state(n_words, np.uint64)` for every row e of `entropy`, (B, n_words).

    `entropy` is a (B, L) uint32 array, L >= 4: each row's words as SeedSequence assembles them,
    a seed's words zero-padded to 4 (which its pool does itself), then any spawn key. The hash is
    numpy's; each of its steps is one array operation for the whole batch, and the steps that
    update pool words from one source word are one operation as well.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = hashmix(entropy[:, :_POOL_SIZE].T)
    # Mix every pool word into each other one, then each further entropy word into each pool word.
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], hashmix(np.broadcast_to(pool[src], (len(dst), len(entropy)))))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        pool = _mix(pool, hashmix(np.broadcast_to(entropy[:, src], pool.shape)))
    state = _hashmix(_INIT_B, _MULT_B)(pool[np.arange(2 * n_words) % _POOL_SIZE])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def run_monte_carlo(params: DgpParams, spec: estimators.ModelSpec | None = None,
                    replications: int = 100) -> McSummary:
    """Generate, estimate and test `replications` markets; aggregate the results.

    Replication r draws its market on numpy's `default_rng` stream of the r-th seed of
    `replication_seeds(params.seed, replications)`. Replications run in
    chunks of at most `_STACK_ROWS` (5,000) rows: `draw_markets` draws a
    chunk's markets together, and they are inverted together and fitted by
    the regression code of a single panel (`estimators.absorb` and
    `pooled_fit`, `diagnostics.first_stage_stats`, `sargan_stats`) with one
    stacked solve per regression, one n-row factor per 2SLS fit. Only a 2SLS
    spec is tested, from that factor: F for one endogenous regressor, J when m > k. A
    market that gave up re-drawing fails with `DegenerateSharesError`. Every
    other replication's outcome comes from its chunk's stack, and a market
    fails with the error class its own panel raises in `estimate`,
    `first_stage_f` or `sargan_j`. An F or J that is not finite (inf for an
    exact first stage) is reported as it is.

    Per-replication estimator failures are counted by error class, not fatal.
    Coverage uses the +-1.96 * SE interval per coefficient. Raises
    `ValueError` unless `replications` is an integer of at least 1, and
    `UnknownColumnError` for the first column the spec names that the
    generator does not make.
    """
    if isinstance(replications, bool) or not isinstance(replications, (int, np.integer)):
        raise ValueError("replications must be an integer")
    if replications < 1:
        raise ValueError("need at least one replication")
    if spec is None:
        spec = default_model_spec(params)
    generated = {*params.characteristic_names(), "price", *params.instrument_names(),
                 "quantity", "market_size", dataio.DEPENDENT_COLUMN}
    for name in (spec.dependent, *spec.regressors, *spec.instruments):
        if name not in generated:
            raise UnknownColumnError(name)
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
    """Whether a replication reports the first-stage F and the Sargan J: only a 2SLS fit does,
    F for one endogenous regressor and J when over-identified (m > k), as `sargan_j` requires."""
    tsls = spec.estimator == "tsls"
    k = len(spec.endogenous_regressors)
    return tsls and k == 1, tsls and len(spec.instruments) > k


def _replications(params: DgpParams, spec: estimators.ModelSpec, seeds) -> list:
    """Every replication's outcome in seed order, drawn and fitted in stacked chunks."""
    per_chunk = max(1, _STACK_ROWS // (params.n_products * params.n_periods))
    records = []
    for start in range(0, len(seeds), per_chunk):
        records += _fit_chunk(params, spec, seeds[start:start + per_chunk])
    return records


def _fit_chunk(params: DgpParams, spec: estimators.ModelSpec, seeds) -> list:
    """One chunk's outcomes, from its stacked fits; a market that gave up fails with
    `DegenerateSharesError` and 0 re-draws."""
    columns, *_, redraws = draw_markets(params, seeds)
    drawn = np.flatnonzero(redraws < _MAX_REDRAWS)
    records = [_Replication(failure=DegenerateSharesError.__name__)] * len(seeds)
    if drawn.size:
        columns = {name: values[drawn] for name, values in columns.items()}
        columns[dataio.DEPENDENT_COLUMN] = _stacked_dependent(columns, params.n_periods)
        for i, record in zip(drawn, _fit_stack(spec, columns, params.n_periods)):
            records[i] = record._replace(redraws=int(redraws[i]))
    return records


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
    """Every market's outcome, for a stack of markets whose rows run over units, `n_periods`
    periods inside, through the code `estimate`, `first_stage_f` and `sargan_j` share.

    A market fails as its own panel does, with the error class of the first step that refuses
    it: a within transform that is not finite (`EstimationError`), a fit that is not full rank
    (`CollinearWithFixedEffectsError` under two-way fixed effects) or not finite, then a Sargan
    design that is not full rank. The F and J are read from the fit's certified `first_stage`
    factor: the F takes no solve, and it is kept once the fit has passed.
    `InsufficientObservationsError` depends on the shape alone, so it fails every market that
    has not failed yet.
    """
    stack, n = columns[spec.dependent].shape
    failure, f, j, p_value = ([None] * stack for _ in range(4))

    def refuse(failed, error):
        for r in np.flatnonzero(failed):
            failure[r] = failure[r] or error.__name__

    has_f, has_j = _reported_tests(spec)
    rows = np.arange(n)
    fit_spec, fit_columns, absorbed, finite = estimators.absorb(spec, columns, rows // n_periods,
                                                                rows % n_periods)
    refuse(~finite, EstimationError)
    try:
        fit = estimators.pooled_fit(fit_spec, fit_columns, absorbed)
        refuse(~fit.certified, CollinearWithFixedEffectsError if spec.estimator == "two_way_fe"
               else RankDeficientError)
        refuse(~fit.finite, EstimationError)
        if has_f:
            stats = diagnostics.first_stage_stats(fit.first_stage.nested_rss[:, 0],
                                                  len(spec.instruments), n)[0]
            f = [None if failed else float(v) for failed, v in zip(failure, stats)]
        if has_j:
            j, p_value, *_, ok = diagnostics.sargan_stats(spec, fit.first_stage, fit.coefficients, n)
            refuse(~ok, RankDeficientError)
    except InsufficientObservationsError:
        refuse(np.ones(stack, dtype=bool), InsufficientObservationsError)
        return [_Replication(first_stage_f=v, failure=failed) for v, failed in zip(f, failure)]
    lead = len(fit_spec.regressors) - len(spec.regressors)  # the absorbed period dummies
    se = estimators.standard_errors(fit.covariance)
    return [
        _Replication(fit.names[lead:], fit.coefficients[r, lead:], se[r, lead:], f[r],
                     _float(j[r]), _float(p_value[r])) if failure[r] is None else
        _Replication(first_stage_f=f[r], failure=failure[r])
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
