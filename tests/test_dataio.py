import json
import math
from pathlib import Path

import numpy as np
import pytest

from logitdemand.dataio import (
    DEPENDENT_COLUMN,
    PanelDataset,
    compute_dependent,
    load_panel,
    parse_spec,
    write_panel_csv,
    write_results_csv,
)
from logitdemand.errors import (
    DomainViolationError,
    DuplicateKeyError,
    MissingRequiredError,
    ParseError,
    UnknownColumnError,
    UnknownKeyError,
)
from logitdemand.estimators import ModelSpec, estimate_ols

BASIC_CSV = """unit,period,quantity,market_size,Price,Subscribe
ps4,2015,50,200,399,0
ps4,2014,60,200,410,0
xbo,2014,40,200,380,0
xbo,2015,30,200,350,1
"""


def _write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_sorts_and_types(tmp_path):
    data = load_panel(_write(tmp_path, BASIC_CSV))
    assert data.n_rows == 4
    assert data.units == ("ps4", "ps4", "xbo", "xbo")
    assert data.periods == (2014, 2015, 2014, 2015)
    assert data.column("quantity").tolist() == [60.0, 50.0, 40.0, 30.0]
    assert data.column_kinds["Subscribe"] == "dummy"
    assert data.column_kinds["Price"] == "continuous"


def test_missing_cells_become_nan(tmp_path):
    text = "unit,period,Price,CPU\na,2014,100,\nb,2014,,1600\n"
    data = load_panel(_write(tmp_path, text))
    assert math.isnan(data.column("CPU")[0])
    assert math.isnan(data.column("Price")[1])
    assert data.complete_rows(["Price"]).tolist() == [True, False]
    assert data.complete_rows(["Price", "CPU"]).tolist() == [False, False]


def test_empty_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_panel(_write(tmp_path, ""))


def test_missing_unit_or_period_column(tmp_path):
    with pytest.raises(ParseError):
        load_panel(_write(tmp_path, "product,period,Price\na,2014,1\n"))
    with pytest.raises(ParseError):
        load_panel(_write(tmp_path, "unit,year,Price\na,2014,1\n"))


def test_bad_number_reports_line_and_column(tmp_path):
    with pytest.raises(ParseError) as err:
        load_panel(_write(tmp_path, "unit,period,Price\na,2014,cheap\n"))
    assert err.value.line == 2
    assert err.value.column == "Price"


def test_non_integer_period_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_panel(_write(tmp_path, "unit,period,Price\na,spring,1\n"))


def test_ragged_row_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_panel(_write(tmp_path, "unit,period,Price\na,2014\n"))


def test_duplicate_key_rejected(tmp_path):
    text = "unit,period,Price\nps4,2015,1\nps4,2015,2\n"
    with pytest.raises(DuplicateKeyError):
        load_panel(_write(tmp_path, text))


def test_dummy_domain_enforced(tmp_path):
    text = "unit,period,Subscribe\na,2014,2\n"
    with pytest.raises(DomainViolationError):
        load_panel(_write(tmp_path, text))


def test_quantity_must_be_positive(tmp_path):
    text = "unit,period,quantity,market_size\na,2014,0,10\n"
    with pytest.raises(DomainViolationError):
        load_panel(_write(tmp_path, text))


def test_aggregate_quantity_below_market_size(tmp_path):
    text = "unit,period,quantity,market_size\na,2014,6,10\nb,2014,5,10\n"
    with pytest.raises(DomainViolationError) as err:
        load_panel(_write(tmp_path, text))
    assert "2014" in str(err.value)


def test_conflicting_market_sizes_rejected(tmp_path):
    text = "unit,period,quantity,market_size\na,2014,1,10\nb,2014,1,12\n"
    with pytest.raises(DomainViolationError):
        load_panel(_write(tmp_path, text))


def test_round_trip_is_bitwise(tmp_path):
    text = (
        "unit,period,Price,CPU\n"
        "a,2014,0.1,\n"
        "b,2014,1e-17,1600.25\n"
        "c,2015,-3.141592653589793,0.30000000000000004\n"
    )
    first = load_panel(_write(tmp_path, text))
    out = tmp_path / "copy.csv"
    write_panel_csv(first, out)
    second = load_panel(out)
    assert first.units == second.units and first.periods == second.periods
    for name in first.columns:
        a, b = first.column(name), second.column(name)
        assert np.array_equal(a, b, equal_nan=True)


def test_write_panel_csv_bytes(tmp_path):
    data = PanelDataset(
        units=("a", "b", "c"),
        periods=(2014, 2014, 2015),
        columns={"Price": [0.1, 1e-17, -3.141592653589793],
                 "CPU": [np.nan, 0.30000000000000004, 1600.0]},
        column_kinds={},
    )
    out = tmp_path / "panel.csv"
    write_panel_csv(data, out)
    assert out.read_bytes() == (
        b"unit,period,Price,CPU\r\n"
        b"a,2014,0.1,\r\n"
        b"b,2014,1e-17,0.30000000000000004\r\n"
        b"c,2015,-3.141592653589793,1600.0\r\n"
    )


def test_row_order_never_affects_estimates(tmp_path):
    rng = np.random.default_rng(12)
    lines = ["unit,period,y,x"]
    for i in range(30):
        lines.append(f"u{i},2014,{rng.normal()},{rng.normal()}")
    shuffled = [lines[0]] + [lines[i + 1] for i in rng.permutation(30)]
    d1 = load_panel(_write(tmp_path, "\n".join(lines) + "\n", "a.csv"))
    d2 = load_panel(_write(tmp_path, "\n".join(shuffled) + "\n", "b.csv"))
    spec = ModelSpec(dependent="y", exogenous_regressors=("x",))
    r1 = estimate_ols(spec, d1)
    r2 = estimate_ols(spec, d2)
    assert np.array_equal(r1.coefficients, r2.coefficients)
    assert np.array_equal(r1.standard_errors, r2.standard_errors)


def test_compute_dependent_even_split(tmp_path):
    text = "unit,period,quantity,market_size\na,2014,50,200\nb,2014,50,200\n"
    data = compute_dependent(load_panel(_write(tmp_path, text)))
    expected = math.log(0.25) - math.log(0.5)
    assert np.allclose(data.column(DEPENDENT_COLUMN), expected)
    assert data.column(DEPENDENT_COLUMN)[0] == pytest.approx(-0.693147, abs=1e-6)


def test_compute_dependent_single_product_is_zero(tmp_path):
    text = "unit,period,quantity,market_size\na,2014,100,200\n"
    data = compute_dependent(load_panel(_write(tmp_path, text)))
    assert data.column(DEPENDENT_COLUMN)[0] == pytest.approx(0.0, abs=1e-15)


def test_compute_dependent_matches_inversion_exactly(tmp_path):
    rng = np.random.default_rng(3)
    lines = ["unit,period,quantity,market_size"]
    for t in range(2010, 2015):
        q = rng.uniform(1.0, 20.0, size=4)
        n = float(q.sum() * rng.uniform(1.5, 3.0))
        for i, qi in enumerate(q):
            lines.append(f"u{i},{t},{float(qi)!r},{n!r}")
    data = load_panel(_write(tmp_path, "\n".join(lines) + "\n"))
    data = compute_dependent(data)
    q = data.column("quantity")
    n = data.column("market_size")
    for t in set(data.periods):
        idx = [i for i in range(data.n_rows) if data.periods[i] == t]
        s = np.array([q[i] / n[i] for i in idx])
        expected = np.log(s) - math.log(1.0 - s.sum())
        got = np.array([data.column(DEPENDENT_COLUMN)[i] for i in idx])
        assert np.array_equal(got, expected)


def test_compute_dependent_warns_and_keeps_existing(tmp_path):
    text = f"unit,period,{DEPENDENT_COLUMN}\na,2014,0.5\n"
    data = load_panel(_write(tmp_path, text))
    with pytest.warns(UserWarning):
        out = compute_dependent(data)
    assert out.column(DEPENDENT_COLUMN)[0] == 0.5


def test_compute_dependent_from_share_column(tmp_path):
    text = "unit,period,share\na,2014,0.25\nb,2014,0.25\n"
    data = compute_dependent(load_panel(_write(tmp_path, text)))
    assert np.allclose(data.column(DEPENDENT_COLUMN), math.log(0.25) - math.log(0.5))


def test_compute_dependent_requires_inputs(tmp_path):
    data = load_panel(_write(tmp_path, "unit,period,Price\na,2014,1\n"))
    with pytest.raises(DomainViolationError):
        compute_dependent(data)


def test_compute_dependent_missing_quantity_names_the_row(tmp_path):
    text = "unit,period,quantity,market_size\na,2014,10,100\nb,2014,,100\n"
    data = load_panel(_write(tmp_path, text))
    with pytest.raises(DomainViolationError) as err:
        compute_dependent(data)
    assert "2014" in str(err.value)


def _spec_dict(**overrides):
    body = {
        "dataset": "panel.csv",
        "dependent": DEPENDENT_COLUMN,
        "exogenous": ["Subscribe"],
        "endogenous": ["Price"],
        "instruments": [],
        "estimator": "ols",
    }
    body.update(overrides)
    return body


def _write_spec(tmp_path, body, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def test_parse_spec_happy_path(tmp_path):
    _write(tmp_path, BASIC_CSV)
    spec, dataset_path = parse_spec(_write_spec(tmp_path, _spec_dict()))
    assert spec.dependent == DEPENDENT_COLUMN
    assert spec.exogenous_regressors == ("Subscribe",)
    assert spec.endogenous_regressors == ("Price",)
    assert spec.estimator == "ols"
    assert spec.covariance == "classical"
    assert spec.include_intercept is True
    assert dataset_path == (tmp_path / "panel.csv").resolve()


def test_parse_spec_tsls_defaults_to_robust(tmp_path):
    body = _spec_dict(estimator="tsls", instruments=["market_size"])
    spec, _ = parse_spec(_write_spec(tmp_path, body))
    assert spec.covariance == "robust_hc0"


def test_parse_spec_missing_required(tmp_path):
    body = _spec_dict()
    del body["dependent"]
    with pytest.raises(MissingRequiredError):
        parse_spec(_write_spec(tmp_path, body))


def test_parse_spec_unknown_key(tmp_path):
    with pytest.raises(UnknownKeyError):
        parse_spec(_write_spec(tmp_path, _spec_dict(weights="huber")))


def test_parse_spec_unknown_column_against_dataset(tmp_path):
    data = load_panel(_write(tmp_path, BASIC_CSV))
    body = _spec_dict(exogenous=["Weight"])
    with pytest.raises(UnknownColumnError):
        parse_spec(_write_spec(tmp_path, body), dataset=data)


def test_parse_spec_allows_derivable_dependent(tmp_path):
    data = load_panel(_write(tmp_path, BASIC_CSV))
    spec, _ = parse_spec(_write_spec(tmp_path, _spec_dict()), dataset=data)
    assert spec.dependent == DEPENDENT_COLUMN


def test_parse_spec_rejects_bad_estimator(tmp_path):
    with pytest.raises(ValueError):
        parse_spec(_write_spec(tmp_path, _spec_dict(estimator="gmm")))


def test_parse_spec_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_spec(path)


@pytest.mark.parametrize("number", [1, 2, 3, 4])
def test_bundled_specs_parse(number):
    path = Path(__file__).resolve().parents[1] / "specs" / f"spec{number}.json"
    spec, dataset_path = parse_spec(path)
    assert spec.estimator == "tsls"
    assert spec.instruments == ("CPU_cost", "RAM_cost")
    assert spec.covariance == "robust_hc0"
    assert dataset_path == path.parent.parent / "data" / "console_panel.csv"


def test_write_results_csv(tmp_path, make_panel):
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    data = make_panel({"y": 2.0 + 3.0 * x, "x": x})
    result = estimate_ols(ModelSpec(dependent="y", exogenous_regressors=("x",)), data)
    out = tmp_path / "coef.csv"
    write_results_csv(result, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,estimate,std_error,t_value"
    assert lines[1].startswith("const,")
    assert float(lines[2].split(",")[1]) == pytest.approx(3.0, abs=1e-12)


def test_dataset_constructor_validates(make_panel):
    with pytest.raises(DuplicateKeyError):
        PanelDataset(("a", "a"), (2014, 2014), {"x": np.array([1.0, 2.0])}, {})
    with pytest.raises(DomainViolationError):
        make_panel({"Subscribe": [0.5]}, kinds={"Subscribe": "dummy"})
