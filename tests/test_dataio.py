import json
import math
from pathlib import Path

import numpy as np
import pytest

from logitdemand.dataio import (
    BLOCK_RECORDS,
    DEPENDENT_COLUMN,
    PanelDataset,
    check_columns,
    compute_dependent,
    load_panel,
    parse_spec,
    results_csv_text,
    write_panel_csv,
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


# --- which fault is reported -------------------------------------------------
# The first faulty line wins; within it the unit, then the period, then the
# value columns in header order. A block with a fault is read again by csv.reader
# and its cells checked record by record, so these pin the row-major rule across
# and within blocks.


def _clean_lines(n, header="unit,period,a,b"):
    return [header] + [f"u{i:05d},{2000 + i % 7},{i}.5,{-i}" for i in range(n)]


def _parse_error(tmp_path, lines):
    with pytest.raises(ParseError) as err:
        load_panel(_write(tmp_path, "\n".join(lines) + "\n"))
    return err.value.line, err.value.column, str(err.value)


@pytest.mark.parametrize("record, column, message", [
    ("u,2014,1.5,oops", "b", "cannot parse 'oops' as a number"),
    ("u,2014,nan,1", "a", "non-finite value 'nan'"),
    (" ,2014,1,1", "unit", "empty unit identifier"),
    # Filled, the blank unit would read "nan" and the blank b one NaN in place of the literal's.
    (",2014,nan,", "unit", "empty unit identifier"),
    (',2014," -NaN ",', "unit", "empty unit identifier"),
    ("u,2014.0,1,1", "period", "period '2014.0' is not an integer"),
    ("u,2014,1", "", "expected 4 fields, got 3"),
    ("u,99999999999999999999,oops,1", "period",
     "period 99999999999999999999 does not fit 64 bits"),
    pytest.param("u,2014,1," + "9" * 131_073, "", "field larger than field limit (131072)",
                 id="field_too_long"),
])
def test_fault_past_the_first_block_is_reported_on_its_line(tmp_path, record, column, message):
    lines = _clean_lines(2 * BLOCK_RECORDS + 10)
    line = BLOCK_RECORDS + 7
    lines[line - 1] = record
    lines[2 * BLOCK_RECORDS + 3] = "u,2014,1,1,1"  # a later fault, in the third block
    assert _parse_error(tmp_path, lines) == (line, column, f"line {line}, column {column!r}: {message}")


def test_first_faulty_line_wins_over_an_earlier_column(tmp_path):
    lines = _clean_lines(20)
    lines[4] = "u00003,2003,3.5,bad"  # line 5, second value column
    lines[8] = "u00007,2000,bad,-7"   # line 9, first value column
    assert _parse_error(tmp_path, lines)[:2] == (5, "b")


def test_within_a_line_identifiers_then_values_in_header_order(tmp_path):
    lines = _clean_lines(5)
    lines[3] = "u00002,2002,bad,worse"
    assert _parse_error(tmp_path, lines)[:2] == (4, "a")
    lines = ["a,unit,b,period", "1,u1,2,2001", "bad,u2,worse,spring"]
    assert _parse_error(tmp_path, lines)[:2] == (3, "period")


@pytest.mark.parametrize("literal", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_literals_are_rejected(tmp_path, literal):
    lines = _clean_lines(5)
    lines[3] = f"u00002,2002,2.5,{literal}"
    assert _parse_error(tmp_path, lines) == (
        4, "b", f"line 4, column 'b': non-finite value {literal!r}")


@pytest.mark.parametrize("blank", [False, True], ids=["numpy_reader", "csv_path"])
def test_cells_are_stripped_as_str_strip_strips(tmp_path, blank):
    """`int` and `float` keep "\\x1c" to "\\x1f", which `str.strip` strips; a cell is stripped
    first on either path (a blank record sends its block to the csv path)."""
    text = ("unit,period,a\nu\x1c,\x1f2014\x1c,\x1d1.5\x1e\n" + ("\n" if blank else "")
            + "v,2015," + ("" if blank else "2") + "\n")
    data = load_panel(_write(tmp_path, text))
    assert (data.units, data.periods) == (("u", "v"), (2014, 2015))
    assert data.column("a")[0] == 1.5 and np.isnan(data.column("a")[1]) == blank


def test_a_quoted_line_break_at_a_block_end_keeps_its_record_whole(tmp_path):
    """numpy's reader ends a quoted cell at the end of its block; a record whose quoted last
    cell runs past the block's last line is read whole, on the line numbers of its records."""
    lines = _clean_lines(2 * BLOCK_RECORDS)
    clean = load_panel(_write(tmp_path, "\n".join(lines) + "\n", "clean.csv"))
    u, period, a, b = lines[BLOCK_RECORDS].split(",")
    lines[BLOCK_RECORDS:BLOCK_RECORDS + 1] = [f'{u},{period},{a},"{b}', '"']
    cut = load_panel(_write(tmp_path, "\n".join(lines) + "\n", "cut.csv"))
    for name in ("unit_levels", "unit_codes", "period_codes", "source_lines"):
        assert getattr(cut, name).tolist() == getattr(clean, name).tolist()
    for name, column in clean.columns.items():
        assert cut.column(name).tobytes() == column.tobytes()


def test_whitespace_row_is_skipped_and_the_ragged_row_after_it_is_not(tmp_path):
    lines = _clean_lines(4)
    lines[2:2] = ["   ", ",,,", "u9,2014"]
    assert _parse_error(tmp_path, lines) == (5, "", "line 5, column '': expected 4 fields, got 2")
    del lines[4]
    data = load_panel(_write(tmp_path, "\n".join(lines) + "\n"))
    assert data.units == ("u00000", "u00001", "u00002", "u00003")
    assert [int(v) for v in data.source_lines] == [2, 5, 6, 7]


def test_blank_record_in_a_later_block_keeps_line_numbers(tmp_path):
    lines = _clean_lines(BLOCK_RECORDS + 5)
    lines.insert(BLOCK_RECORDS + 2, "")
    data = load_panel(_write(tmp_path, "\n".join(lines) + "\n"))
    assert data.n_rows == BLOCK_RECORDS + 5
    assert data.source_lines[-1] == BLOCK_RECORDS + 7
    assert data.source_lines[BLOCK_RECORDS + 1] == BLOCK_RECORDS + 4


@pytest.mark.parametrize("content, line, column, message", [
    (b"unit,period,share\na,2014,0.25\nb,2015,0.\xff25\n", 3, "share", "not valid UTF-8"),
    (b"unit,period,share\na,2014,0.25\nb\xff,2015,0.25\n", 3, "unit", "not valid UTF-8"),
    (b"unit,period,share\na,2014,0.25\nb,20\xff15,0.25\n", 3, "period", "not valid UTF-8"),
    # Ranked like any fault on its line: the period comes before the value columns.
    (b"unit,period,share\na,2014,0.25\nb,spring,0.\xff25\n", 3, "period",
     "period 'spring' is not an integer"),
    (b"unit,period,sh\xffare\na,2014,0.25\n", 1, "sh\udcffare", "not valid UTF-8"),
], ids=["value", "unit", "period", "period_first", "header"])
def test_byte_that_is_not_utf8_is_reported_on_its_cell(tmp_path, content, line, column, message):
    path = tmp_path / "panel.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load_panel(path)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column!r}: {message}"


@pytest.mark.parametrize("record, column", [("u\xff,2014,1,1", "unit"), ("u,2014,1,\xff", "b")],
                         ids=["unit", "value"])
def test_byte_that_is_not_utf8_past_the_first_block_is_reported_on_its_line(tmp_path, record,
                                                                            column):
    lines = _clean_lines(2 * BLOCK_RECORDS + 10)
    line = BLOCK_RECORDS + 7
    lines[line - 1] = record
    path = tmp_path / "panel.csv"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    assert len("\n".join(lines[:line - 1])) > 8192
    with pytest.raises(ParseError) as err:
        load_panel(path)
    assert str(err.value) == f"line {line}, column {column!r}: not valid UTF-8"


def test_a_byte_order_mark_changes_neither_a_panel_nor_a_spec(tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark; it is skipped."""
    plain = load_panel(_write(tmp_path, BASIC_CSV, "plain.csv"))
    marked = load_panel(_write(tmp_path, "\ufeff" + BASIC_CSV, "marked.csv"))
    assert list(marked.columns) == list(plain.columns)
    for name in ("unit_levels", "unit_codes", "period_levels", "period_codes", "source_lines"):
        assert getattr(marked, name).tolist() == getattr(plain, name).tolist()
    for name, column in plain.columns.items():
        assert marked.column(name).tobytes() == column.tobytes()
    text = json.dumps(_spec_dict())
    assert parse_spec(_write(tmp_path, "\ufeff" + text, "marked.json")) == \
        parse_spec(_write(tmp_path, text, "plain.json"))


def test_duplicated_header_name_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match=r"^line 1, column 'a': duplicated column name$"):
        load_panel(_write(tmp_path, "unit,period,a,b,a\nu,2014,1,2,3\n"))


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
    with pytest.raises(DomainViolationError) as err:
        load_panel(_write(tmp_path, text))
    assert str(err.value) == ("column 'market_size', row line 2: "
                              "period 2014 carries conflicting market sizes [10.0, 12.0]")


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
    data = PanelDataset.from_rows(
        units=("a", "b", "c"),
        periods=(2014, 2014, 2015),
        columns={"Price": [0.1, 1e-17, -3.141592653589793],
                 "CPU": [np.nan, 0.30000000000000004, 1600.0]},
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
    periods = data.periods
    for t in set(periods):
        idx = [i for i in range(data.n_rows) if periods[i] == t]
        s = np.array([q[i] / n[i] for i in idx])
        expected = np.log(s) - math.log(1.0 - s.sum())
        got = np.array([data.column(DEPENDENT_COLUMN)[i] for i in idx])
        assert np.array_equal(got, expected)


def test_compute_dependent_rebuilds_a_present_dependent(tmp_path):
    text = f"unit,period,share,{DEPENDENT_COLUMN}\na,2014,0.25,7\nb,2014,0.25,\n"
    out = compute_dependent(load_panel(_write(tmp_path, text)))
    assert np.array_equal(out.column(DEPENDENT_COLUMN), np.full(2, math.log(0.25) - math.log(0.5)))


def test_compute_dependent_from_share_column(tmp_path):
    text = "unit,period,share\na,2014,0.25\nb,2014,0.25\n"
    data = compute_dependent(load_panel(_write(tmp_path, text)))
    assert np.allclose(data.column(DEPENDENT_COLUMN), math.log(0.25) - math.log(0.5))


def test_compute_dependent_share_period_summing_past_one_names_the_sum(tmp_path):
    text = "unit,period,share\na,2014,0.2\na,2015,0.5\nb,2014,0.3\nb,2015,0.6\n"
    with pytest.raises(DomainViolationError,
                       match=r"period 2015: inside shares sum to 1\.1, outside share must be positive"):
        compute_dependent(load_panel(_write(tmp_path, text)))


@pytest.mark.parametrize("text, message", [
    ("unit,period,share\na,2014,0.5\na,2015,0\nb,2015,0.3\n",
     "column 'share', row line 3: period 2015: inside share 0 must be positive"),
    ("unit,period,share\na,2014,0.5\nb,2014,-0.1\n",
     "column 'share', row line 3: period 2014: inside share -0.1 must be positive"),
    # Quantities below the market size whose shares q / N sum to 1.0 in float64.
    ("unit,period,quantity,market_size\na,2014,0.9102976704971546,1.7\n"
     "b,2014,0.7897023295028452,1.7\n",
     "column 'quantity', row line 2: period 2014: inside shares sum to 1, "
     "outside share must be positive"),
    # In one period a missing share comes first, then a share at or below 0, then the sum.
    ("unit,period,share\na,2014,0.9\nb,2014,-1\nc,2014,\n",
     "column 'share', row line 4: period 2014: missing share"),
    ("unit,period,share\na,2014,0.9\nb,2014,0.9\nc,2014,-1\n",
     "column 'share', row line 4: period 2014: inside share -1 must be positive"),
    # Periods are checked in sorted order, whatever the line order.
    ("unit,period,share\na,2015,0\nb,2014,0.6\nc,2014,0.6\n",
     "column 'share', row line 3: period 2014: inside shares sum to 1.2, "
     "outside share must be positive"),
], ids=["zero_share", "negative_share", "shares_round_to_one", "missing_before_nonpositive",
        "nonpositive_before_sum", "periods_in_sorted_order"])
def test_compute_dependent_names_each_share_fault(tmp_path, text, message):
    with pytest.raises(DomainViolationError) as err:
        compute_dependent(load_panel(_write(tmp_path, text)))
    assert str(err.value) == message


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
    spec, _ = parse_spec(_write_spec(tmp_path, body))
    with pytest.raises(UnknownColumnError):
        check_columns(spec, data)


def test_parse_spec_allows_derivable_dependent(tmp_path):
    data = load_panel(_write(tmp_path, BASIC_CSV))
    spec, _ = parse_spec(_write_spec(tmp_path, _spec_dict()))
    check_columns(spec, data)
    assert spec.dependent == DEPENDENT_COLUMN


def test_parse_spec_rejects_bad_estimator(tmp_path):
    with pytest.raises(ValueError):
        parse_spec(_write_spec(tmp_path, _spec_dict(estimator="gmm")))


def test_parse_spec_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_spec(path)


@pytest.mark.parametrize("body, error, message", [
    ([], ParseError, "line 1, column '': spec must be a JSON object"),
    ({**_spec_dict(), "weights": "huber"}, UnknownKeyError, "unknown spec keys: ['weights']"),
    ({"dataset": "panel.csv", "estimator": "ols"}, MissingRequiredError,
     "spec is missing required field 'dependent'"),
    (_spec_dict(exogenous="Subscribe"), ValueError,
     "spec field 'exogenous' must be a list of column names"),
], ids=["array", "unknown_key", "missing_key", "role_string"])
def test_parse_spec_faults_name_the_spec(tmp_path, body, error, message):
    with pytest.raises(error) as err:
        parse_spec(_write_spec(tmp_path, body))
    assert str(err.value) == message


@pytest.mark.parametrize("number", [1, 2, 3, 4])
def test_bundled_specs_parse(number):
    path = Path(__file__).resolve().parents[1] / "specs" / f"spec{number}.json"
    spec, dataset_path = parse_spec(path)
    assert spec.estimator == "tsls"
    assert spec.instruments == ("CPU_cost", "RAM_cost")
    assert spec.covariance == "robust_hc0"
    assert dataset_path == path.parent.parent / "data" / "console_panel.csv"


def test_write_results_csv(make_panel):
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    data = make_panel({"y": 2.0 + 3.0 * x, "x": x})
    result = estimate_ols(ModelSpec(dependent="y", exogenous_regressors=("x",)), data)
    lines = results_csv_text(result).strip().splitlines()
    assert lines[0] == "name,estimate,std_error,t_value"
    assert lines[1].startswith("const,")
    assert float(lines[2].split(",")[1]) == pytest.approx(3.0, abs=1e-12)


def test_unit_and_period_codes_follow_load_and_subset(tmp_path):
    data = load_panel(_write(tmp_path, BASIC_CSV))
    assert data.unit_levels.tolist() == ["ps4", "xbo"]
    assert data.unit_codes.tolist() == [0, 0, 1, 1]
    assert data.period_levels.tolist() == [2014, 2015]
    assert data.period_codes.tolist() == [0, 1, 0, 1]
    sub = data.subset([False, True, True, False])
    assert sub.units == ("ps4", "xbo") and sub.periods == (2015, 2014)
    assert [int(v) for v in sub.source_lines] == [2, 4]
    assert sub.column("quantity").tolist() == [50.0, 40.0]
    assert sub.unit_codes.tolist() == [0, 1] and sub.period_codes.tolist() == [1, 0]
    only_xbo = data.subset([False, False, True, True])
    assert only_xbo.unit_levels.tolist() == ["xbo"] and only_xbo.unit_codes.tolist() == [0, 0]
    rebuilt = PanelDataset.from_rows(sub.units, sub.periods, dict(sub.columns))
    for name in ("unit_levels", "unit_codes", "period_levels", "period_codes", "source_lines"):
        for panel in (data, sub, rebuilt):
            array = getattr(panel, name)
            assert array is None or not array.flags.writeable
        if name != "source_lines":
            assert getattr(rebuilt, name).tolist() == getattr(sub, name).tolist()
    assert not any(arr.flags.writeable for panel in (data, sub) for arr in panel.columns.values())


def test_with_column_validates_the_new_column(make_panel):
    data = make_panel({"quantity": [1.0, 2.0], "market_size": [10.0, 10.0]})
    with pytest.raises(DomainViolationError, match="is not 0 or 1"):
        data.with_column("Subscribe", [0.0, 2.0])
    with pytest.raises(DomainViolationError, match="must be positive"):
        data.with_column("quantity", [0.0, 1.0])
    with pytest.raises(DomainViolationError, match="conflicting market sizes"):
        data.with_column("market_size", [10.0, 12.0])
    with pytest.raises(ValueError, match="has 3 rows, expected 2"):
        data.with_column("x", [1.0, 2.0, 3.0])
    values = np.array([1.0, 2.0])
    added = data.with_column("x", values)
    values[0] = 5.0
    assert added.column("x").tolist() == [1.0, 2.0] and not added.column("x").flags.writeable
    assert not data.has_column("x")


def test_dataset_constructor_validates(make_panel):
    with pytest.raises(DuplicateKeyError):
        PanelDataset.from_rows(("a", "a"), (2014, 2014), {"x": np.array([1.0, 2.0])})
    with pytest.raises(DomainViolationError):
        make_panel({"Subscribe": [0.5]})


@pytest.mark.parametrize("field, value, message", [
    ("unit_codes", np.array([0, -1]), "unit_codes must be integers indexing unit_levels"),
    ("period_codes", np.array([0, 2]), "period_codes must be integers indexing period_levels"),
    ("unit_codes", np.array([0.0, 1.0]), "unit_codes must be integers"),
    ("unit_levels", np.array(["b", "a"], dtype=object), "unit_levels must be sorted and distinct"),
    ("period_levels", np.array([2014, 2014]), "period_levels must be sorted and distinct"),
    ("unit_codes", [0, 1], "must be flat numpy arrays"),
    ("columns", {"x": [1.0, 2.0]}, "must be flat numpy arrays"),
])
def test_coded_constructor_checks_codes_and_levels(field, value, message):
    fields = {"unit_levels": np.array(["a", "b"], dtype=object), "unit_codes": np.array([0, 1]),
              "period_levels": np.array([2014, 2015]), "period_codes": np.array([0, 1]),
              "columns": {"x": np.array([1.0, 2.0])}}
    PanelDataset(**fields)
    with pytest.raises(ValueError, match=message):
        PanelDataset(**{**fields, field: value})


def test_an_unknown_column_is_a_key_error(make_panel):
    data = make_panel({"y": [1.0, 2.0]})
    with pytest.raises(KeyError, match="no column 'nope'"):
        data.column("nope")
