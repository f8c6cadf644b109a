import numpy as np
import pytest
from hypothesis import settings

from logitdemand.dataio import PanelDataset, compute_dependent
from logitdemand.simulate import DgpParams, default_model_spec, generate_market

# Property tests are derandomized and keep no example database, so the suite is
# deterministic and writes nothing; each test sets its own max_examples.
settings.register_profile("logitdemand", deadline=None, database=None, derandomize=True)
settings.load_profile("logitdemand")


@pytest.fixture
def make_panel():
    """Build a PanelDataset from raw column arrays; one unit per row by default."""

    def build(columns, units=None, periods=None):
        n = len(next(iter(columns.values())))
        if units is None:
            units = [f"u{i:03d}" for i in range(n)]
        if periods is None:
            periods = [2001] * n
        return PanelDataset.from_rows(
            units=tuple(units),
            periods=tuple(periods),
            columns={k: np.asarray(v, dtype=float) for k, v in columns.items()},
        )

    return build


@pytest.fixture
def twin_panel(make_panel):
    """A 12-row panel, 3 units by 4 periods, whose x2 is exactly 2 * x1."""
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=12)
    return make_panel({"y": 1.0 + x1 + rng.normal(size=12), "x1": x1, "x2": 2.0 * x1},
                      units=[f"u{j}" for j in range(3) for _ in range(4)],
                      periods=[2001 + t for _ in range(3) for t in range(4)])


@pytest.fixture
def simulated_market():
    """Generate a clean simulated panel with the dependent column attached."""

    def build(seed=7, estimator="tsls", **overrides):
        defaults = dict(
            n_products=6,
            n_periods=8,
            n_characteristics=2,
            beta=(1.0, -0.5),
            alpha=1.0,
            xi_scale=0.3,
            price_endogeneity=0.0,
            instrument_strength=1.0,
            price_noise_scale=0.5,
            seed=seed,
        )
        defaults.update(overrides)
        params = DgpParams(**defaults)
        data, truth = generate_market(params)
        data = compute_dependent(data)
        return default_model_spec(params, estimator=estimator), data, truth

    return build
