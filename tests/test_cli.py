import dataclasses
import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitdemand import dataio, errors, simulate
from logitdemand.cli import main
from logitdemand.dataio import DEPENDENT_COLUMN, compute_dependent, load_panel, write_panel_csv
from logitdemand.estimators import estimate
from logitdemand.simulate import (
    DgpParams,
    default_model_spec,
    generate_market,
    replication_seeds,
    run_monte_carlo,
)

GOOD_CSV = """unit,period,quantity,market_size,Price
a,2014,50,200,399
b,2014,50,200,380
a,2015,60,200,350
b,2015,30,200,360
"""

BAD_CSV = """unit,period,quantity,market_size,Price
a,2014,150,200,399
b,2014,50,200,380
"""


def _sim_inputs(tmp_path, seed=3, **overrides):
    defaults = dict(
        n_products=6, n_periods=8, n_characteristics=2, beta=(1.0, -0.5),
        alpha=1.0, xi_scale=0.3, price_endogeneity=0.5, instrument_strength=1.5,
        price_noise_scale=0.5, seed=seed,
    )
    defaults.update(overrides)
    params = DgpParams(**defaults)
    data, _ = generate_market(params)
    csv_path = tmp_path / "sim.csv"
    write_panel_csv(data, csv_path)
    spec = {
        "dataset": "sim.csv",
        "dependent": DEPENDENT_COLUMN,
        "exogenous": ["x1", "x2"],
        "endogenous": ["price"],
        "instruments": [f"cost{i + 1}" for i in range(params.n_instruments)],
        "estimator": "tsls",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return spec_path, csv_path


def test_invert_adds_column_and_prints_outside_shares(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    src.write_text(GOOD_CSV, encoding="utf-8")
    out = tmp_path / "inverted.csv"
    code = main(["invert", "--data", str(src), "--output", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "period 2014: outside share 0.500000" in captured.out
    assert "period 2015: outside share 0.550000" in captured.out
    data = load_panel(out)
    assert data.has_column(DEPENDENT_COLUMN)
    assert (tmp_path / "inverted.csv.manifest.json").exists()


def test_invert_share_only_panel(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    src.write_text("unit,period,share\na,2014,0.25\nb,2015,0.4\n", encoding="utf-8")
    out = tmp_path / "inverted.csv"
    assert main(["invert", "--data", str(src), "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["period 2014: outside share 0.750000", "period 2015: outside share 0.600000"]
    assert load_panel(out).has_column(DEPENDENT_COLUMN)


def test_invert_rejects_saturated_period(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    src.write_text(BAD_CSV, encoding="utf-8")
    code = main(["invert", "--data", str(src), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "2014" in capsys.readouterr().err


@pytest.mark.parametrize("command, content, reason", [
    ("invert", "unit,period,share\na,2014,0.5\nb,2014,0\n",
     "row line 3: period 2014: inside share 0 must be positive"),
    ("estimate", "unit,period,share\na,2014,0.5\nb,2014,0\n",
     "row line 3: period 2014: inside share 0 must be positive"),
    # Quantities below the market size whose shares q / N sum to 1.0 in float64.
    ("invert", "unit,period,quantity,market_size\na,2014,0.9102976704971546,1.7\n"
               "b,2014,0.7897023295028452,1.7\n",
     "row line 2: period 2014: inside shares sum to 1, outside share must be positive"),
    ("estimate", "unit,period,quantity,market_size\na,2014,0.9102976704971546,1.7\n"
                 "b,2014,0.7897023295028452,1.7\n",
     "row line 2: period 2014: inside shares sum to 1, outside share must be positive"),
    ("invert", f"unit,period,{DEPENDENT_COLUMN}\na,2014,0.5\n",
     "need quantity and market_size columns (or a share column) to build the dependent"),
], ids=["invert_zero_share", "estimate_zero_share", "invert_shares_round_to_one",
        "estimate_shares_round_to_one", "invert_dependent_alone"])
def test_a_panel_without_valid_shares_exits_2_with_one_line(tmp_path, command, content, reason):
    (tmp_path / "panel.csv").write_text(content, encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps(
        {"dataset": "panel.csv", "dependent": DEPENDENT_COLUMN, "estimator": "ols"}), encoding="utf-8")
    argv = (["invert", "--data", str(tmp_path / "panel.csv"), "--output", str(tmp_path / "out.csv")]
            if command == "invert" else ["estimate", "--spec", str(tmp_path / "spec.json")])
    code, err = _run_under_the_exit_contract(argv)
    assert code == 2 and err.endswith(reason + "\n"), err


def test_invert_on_its_own_output_writes_the_same_bytes(tmp_path):
    src = tmp_path / "panel.csv"
    src.write_text(GOOD_CSV, encoding="utf-8")
    outputs = [src, tmp_path / "inverted.csv", tmp_path / "reinverted.csv"]
    for data, out in zip(outputs, outputs[1:]):
        argv = ["invert", "--data", str(data), "--output", str(out)]
        assert _run_under_the_exit_contract(argv) == (0, "")
    assert outputs[1].read_bytes() == outputs[2].read_bytes()


def test_invert_copies_the_records_it_read_in_the_files_order(tmp_path):
    """`invert` writes the header and each record as read, in the file's order, with `\\r\\n`
    line ends and the dependent appended, or written over a `log_share_diff` cell where it
    stands; a byte-order mark and blank records are dropped."""
    records = {"b": '"b",2015, 0.40', "a": "a,2014,0.25", "c, d": '"c, d",2014,1.5e-1'}
    appended = "unit,period,share\r\n{b}\n\r{a}\n,,\r{c, d}".format_map(records)
    replaced = "log_share_diff,unit,period,share\r\n-9,{b}\n-9,{a}\n\n-9,{c, d}\n"
    replaced = replaced.format_map(records)
    for name, content in (("appended.csv", appended), ("replaced.csv", replaced)):
        src, out = tmp_path / name, tmp_path / f"inverted-{name}"
        src.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        argv = ["invert", "--data", str(src), "--output", str(out)]
        assert _run_under_the_exit_contract(argv) == (0, "")
        data = compute_dependent(load_panel(src))
        delta = dict(zip(data.units, data.column(DEPENDENT_COLUMN).tolist()))
        if name == "appended.csv":
            lines = ["unit,period,share,log_share_diff",
                     *(f"{record},{delta[unit]!r}" for unit, record in records.items())]
        else:
            lines = ["log_share_diff,unit,period,share",
                     *(f"{delta[unit]!r},{record}" for unit, record in records.items())]
        assert out.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode("utf-8")


@pytest.mark.parametrize("via", ["same_path", "symlink"])
def test_invert_onto_its_own_input_writes_what_a_separate_output_gets(tmp_path, via):
    src = tmp_path / "panel.csv"
    src.write_bytes(b'\xef\xbb\xbfunit,period,share\n"b",2015,0.4\n\nb,2014, 0.25\r"a\nz",2014,0.5')
    separate = tmp_path / "separate.csv"
    assert _run_under_the_exit_contract(
        ["invert", "--data", str(src), "--output", str(separate)]) == (0, "")
    output = src
    if via == "symlink":
        output = tmp_path / "link.csv"
        output.symlink_to(src)
    assert _run_under_the_exit_contract(
        ["invert", "--data", str(src), "--output", str(output)]) == (0, "")
    assert output.read_bytes() == separate.read_bytes()


@pytest.mark.parametrize("edit, error", [
    (lambda text: text[:text.rindex("\n", 0, -1) + 1],
     "line 5, column '': no record: the file changed after it was loaded"),
    (lambda text: text.replace("b,2015", '"' + "b" * 131_073 + '",2015'),
     "field larger than field limit (131072): the file changed after it was loaded"),
], ids=["loses_its_last_record", "gains_a_field_past_the_limit"])
def test_a_file_that_changes_after_loading_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                     edit, error):
    src = tmp_path / "panel.csv"
    src.write_text(GOOD_CSV, encoding="utf-8")
    load = dataio.load_panel

    def load_then_edit(path):
        data = load(path)
        src.write_text(edit(GOOD_CSV), encoding="utf-8")
        return data

    monkeypatch.setattr(dataio, "load_panel", load_then_edit)
    argv = ["invert", "--data", str(src), "--output", str(tmp_path / "out.csv")]
    assert _run_under_the_exit_contract(argv) == (2, f"error: {error}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["panel.csv"]


@pytest.mark.parametrize("content", [
    None,
    b"unit,period,share\na,2014,0.\xff25\n",
    b"unit,period,share\na,99999999999999999999,0.25\n",
    b"unit,period,share\na,2014,0." + b"2" * 131_073 + b"\n",
], ids=["missing_file", "not_utf8", "period_overflow", "field_too_long"])
def test_invert_unreadable_data_exits_2(tmp_path, capsys, content):
    src = tmp_path / "panel.csv"
    if content is not None:
        src.write_bytes(content)
    out = tmp_path / "inverted.csv"
    assert main(["invert", "--data", str(src), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_invert_reads_a_panel_with_a_byte_order_mark_as_its_twin(tmp_path, capsys):
    outputs = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        src = tmp_path / f"{name}.csv"
        src.write_bytes(mark + b"unit,period,share\na,2014,0.25\nb,2014,0.5\n")
        out = tmp_path / f"{name}-inverted.csv"
        assert main(["invert", "--data", str(src), "--output", str(out)]) == 0
        outputs.append((capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].err == ""


def test_estimate_text_table(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    code = main(["estimate", "--spec", str(spec_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "coefficient" in out
    assert "price" in out
    assert "note: * p<0.1; ** p<0.05; *** p<0.01" in out
    assert "observations: 48" in out


def test_estimate_csv_format(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    code = main(["estimate", "--spec", str(spec_path), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,estimate,std_error,t_value"
    assert len(lines) == 5  # const, x1, x2, price
    float(lines[1].split(",")[1])  # parses


def test_estimate_output_file_and_manifest(tmp_path):
    spec_path, csv_path = _sim_inputs(tmp_path)
    out = tmp_path / "table.txt"
    code = main(["estimate", "--spec", str(spec_path), "--output", str(out)])
    assert code == 0
    assert "coefficient" in out.read_text()
    manifest = json.loads((tmp_path / "table.txt.manifest.json").read_text())
    assert manifest["spec"] == str(spec_path)
    assert manifest["tool_version"]
    assert manifest["command"][0] == "estimate"


def test_estimate_is_byte_deterministic(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    assert main(["estimate", "--spec", str(spec_path)]) == 0
    first = capsys.readouterr().out
    assert main(["estimate", "--spec", str(spec_path)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_estimate_method_override(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    code = main(["estimate", "--spec", str(spec_path), "--method", "ols"])
    assert code == 0
    out = capsys.readouterr().out
    assert "R-squared" in out


def test_estimate_fe_method(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    code = main(["estimate", "--spec", str(spec_path), "--method", "fe"])
    assert code == 0
    out = capsys.readouterr().out
    assert "within R-squared" in out
    assert "absorbed fixed effects: 6 units, 8 periods" in out


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_too_few_instruments_exits_4(tmp_path, capsys, command):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["estimator"] = "ols"
    # Two endogenous regressors, one instrument: the order condition fails.
    spec["exogenous"], spec["endogenous"], spec["instruments"] = ["x1"], ["x2", "price"], ["cost1"]
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [command, "--spec", str(spec_path)] + (["--method", "2sls"] if command == "estimate" else [])
    assert main(argv) == 4
    assert "1 instruments cannot identify 2" in capsys.readouterr().err


def test_estimate_2sls_without_instruments_exits_4(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["instruments"] = []
    spec["estimator"] = "ols"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path), "--method", "2sls"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 instruments" in captured.err


@pytest.mark.parametrize("instruments", [True, False], ids=["instruments", "no_instruments"])
def test_estimate_2sls_on_fixed_effects_spec_exits_2(tmp_path, capsys, instruments):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["estimator"] = "two_way_fe"
    if not instruments:
        spec["instruments"] = []
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path), "--method", "2sls"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'two_way_fe'" in captured.err
    assert "not supported yet" in captured.err


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_data_option_reads_the_file_a_spec_would_name(tmp_path, capsys, command):
    spec_path, csv_path = _sim_inputs(tmp_path)
    assert main([command, "--spec", str(spec_path)]) == 0
    named = capsys.readouterr()
    spec = json.loads(spec_path.read_text())
    spec["dataset"] = "missing.csv"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "--spec", str(spec_path), "--data", str(csv_path)]) == 0
    assert capsys.readouterr() == named


def test_robust_option_equals_a_robust_spec(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["estimator"], spec["covariance"] = "ols", "classical"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path), "--robust"]) == 0
    forced = capsys.readouterr().out
    spec["covariance"] = "robust_hc0"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path)]) == 0
    assert capsys.readouterr().out == forced
    assert "normal approximation (HC0)" in forced


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("estimator", ["ols", "two_way_fe"])
def test_spec_with_nothing_to_estimate_exits_2(tmp_path, capsys, fmt, estimator):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec.update(exogenous=[], endogenous=[], instruments=[], estimator=estimator, intercept=False)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path), "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "", "error: spec has nothing to estimate: no regressors and no intercept\n")


# Each fault: the spec fields it overrides, and what the one-line error must name.
SPEC_FAULTS = {
    "fixed_effects_with_intercept": ({"estimator": "two_way_fe", "intercept": True}, "got True"),
    "column_repeated_in_a_role": ({"exogenous": ["x1", "x2", "x1"]}, "'x1' is listed 2 times"),
    "column_in_two_roles": ({"exogenous": ["x1", "x2", "price"]}, "'price' is listed 2 times"),
    "unknown_covariance": ({"covariance": "hc3"}, "got 'hc3'"),
    "dataset_not_a_string": ({"dataset": 5}, "'dataset' must be a string"),
    "dependent_is_a_regressor": ({"dependent": "x1"}, "'x1' is also listed"),
    "dependent_is_an_instrument": ({"dependent": "cost1"}, "'cost1' is also listed"),
}


@pytest.mark.parametrize("fault", sorted(SPEC_FAULTS))
@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_spec_fault_exits_2(tmp_path, capsys, command, fault):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    overrides, named = SPEC_FAULTS[fault]
    spec.update(overrides)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "--spec", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_tsls_spec_with_too_few_instruments_exits_4(tmp_path, capsys, command):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["exogenous"], spec["endogenous"], spec["instruments"] = ["x1"], ["x2", "price"], ["cost1"]
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "--spec", str(spec_path)]) == 4
    assert "1 instruments cannot identify 2" in capsys.readouterr().err


def test_estimate_rank_deficient_exits_3(tmp_path, capsys):
    spec_path, csv_path = _sim_inputs(tmp_path)
    data = load_panel(csv_path)
    data = data.with_column("x1_twin", 2.0 * data.column("x1"))
    write_panel_csv(data, csv_path)
    spec = json.loads(spec_path.read_text())
    spec["exogenous"].append("x1_twin")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["estimate", "--spec", str(spec_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "x1" in err


def test_estimate_names_the_dependent_column_of_one_panel(tmp_path, capsys, twin_panel):
    write_panel_csv(twin_panel, tmp_path / "twin.csv")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"dataset": "twin.csv", "dependent": "y",
                                     "exogenous": ["x1", "x2"], "estimator": "ols"}),
                         encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path)]) == 3
    assert capsys.readouterr() == ("", "error: design is rank deficient in columns ['x1']\n")


def test_estimate_reports_dropped_rows(tmp_path, capsys):
    spec_path, csv_path = _sim_inputs(tmp_path)
    text = csv_path.read_text().splitlines()
    # Blank out one x1 cell (third field) on the first data row.
    fields = text[1].split(",")
    fields[2] = ""
    text[1] = ",".join(fields)
    csv_path.write_text("\n".join(text) + "\n", encoding="utf-8")
    code = main(["estimate", "--spec", str(spec_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "observations: 47" in captured.out
    assert "dropped 1 of 48 rows" in captured.err


def test_estimate_unknown_column_exits_2(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["exogenous"].append("Weight")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(spec_path)]) == 2
    assert "Weight" in capsys.readouterr().err


def test_diagnose_reports_f_and_j(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    code = main(["diagnose", "--spec", str(spec_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "First-stage F test" in out
    assert "Res.Df restricted" in out
    assert "Sargan J test" in out
    assert "decision at 5%" in out


def test_diagnose_exactly_identified_notes_skip(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path, n_instruments=1)
    code = main(["diagnose", "--spec", str(spec_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "F:" in out
    assert "exactly identified" in out


def test_diagnose_exactly_identified_writes_output(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path, n_instruments=1)
    out = tmp_path / "report.txt"
    assert main(["diagnose", "--spec", str(spec_path), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "exactly identified" in out.read_text()
    assert (tmp_path / "report.txt.manifest.json").exists()


def _small_tsls_inputs(tmp_path, columns, intercept=True):
    """A one-period panel of `columns` (x1, price, then the instruments) and its 2SLS spec."""
    n = len(columns["x1"])
    header = ",".join(["unit", "period", DEPENDENT_COLUMN, *columns])
    rows = [",".join([f"u{i}", "2001", f"{0.1 * i}", *(str(v[i]) for v in columns.values())])
            for i in range(n)]
    (tmp_path / "small.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    spec = {"dataset": "small.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1"],
            "endogenous": ["price"], "instruments": list(columns)[2:], "estimator": "tsls",
            "intercept": intercept}
    spec_path = tmp_path / "small.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return spec_path


def test_diagnose_exact_first_stage_reports_infinite_f(tmp_path, capsys):
    # The instrument is the price itself, so the unrestricted first stage fits exactly.
    price = [1, 0, 1, 1, 2, 2]
    spec_path = _small_tsls_inputs(tmp_path, {"x1": [2, 0, 0, 0, 1, 2], "price": price, "z": price})
    assert main(["diagnose", "--spec", str(spec_path)]) == 0
    captured = capsys.readouterr()
    assert "  F:                      inf\n  Pr(>F):                 0.000\n" in captured.out
    assert "exactly identified" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("columns, intercept, message", [
    ({"x1": [0, 1, 0], "price": [1, 3, 2], "z": [1, 0, 2]}, True,
     "3 rows cannot support the unrestricted first stage"),
    # Without an intercept the first stage has 3 columns, the Sargan regression still 4.
    ({"x1": [0, 1, 0, 2], "price": [1, 3, 2, 2], "z": [1, 0, 2, 1], "z2": [5, 1, 3, 2]}, False,
     "4 rows cannot support the residual regression"),
], ids=["first_stage", "residual_regression"])
def test_diagnose_on_too_few_rows_exits_3(tmp_path, capsys, columns, intercept, message):
    spec_path = _small_tsls_inputs(tmp_path, columns, intercept)
    assert main(["diagnose", "--spec", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _blank_cost1_spec(tmp_path, estimator="tsls"):
    """A 48-row panel whose cost1 cell on line 6 is blank, and a spec naming cost1."""
    data, _ = generate_market(DgpParams(n_products=8, n_periods=6, xi_scale=0.5,
                                        price_endogeneity=0.5, n_instruments=3, seed=3))
    cost1 = data.column("cost1").copy()
    cost1[4] = np.nan
    write_panel_csv(data.with_column("cost1", cost1), tmp_path / "panel.csv")
    spec = {"dataset": "panel.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1"],
            "endogenous": ["price"], "instruments": ["cost1", "cost2", "cost3"],
            "estimator": estimator}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return tmp_path / "spec.json"


DROPPED_NOTE = "note: dropped 1 of 48 rows with missing values (line 6)\n"


@pytest.mark.parametrize("estimator", ["tsls", "ols"])
def test_diagnose_reports_dropped_rows(tmp_path, capsys, estimator):
    # An OLS spec is diagnosed as its 2SLS, so a blank instrument cell drops its row too.
    spec_path = _blank_cost1_spec(tmp_path, estimator)
    assert main(["diagnose", "--spec", str(spec_path)]) == 0
    out, err = capsys.readouterr()
    assert "Res.Df unrestricted:    42\n" in out and "Sargan J test (H0" in out
    assert err == DROPPED_NOTE


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_dropped_rows_are_noted_once_after_the_output_is_written(tmp_path, capsys, command):
    spec_path = _blank_cost1_spec(tmp_path)
    assert main([command, "--spec", str(spec_path), "--output", str(tmp_path / "out.txt")]) == 0
    assert capsys.readouterr() == ("", DROPPED_NOTE)
    assert (tmp_path / "out.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_an_output_that_cannot_be_written_fails_without_the_dropped_row_note(tmp_path, capsys,
                                                                            command):
    spec_path = _blank_cost1_spec(tmp_path)
    target = tmp_path / "missing" / "out.txt"
    assert main([command, "--spec", str(spec_path), "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "out.txt" in err


def test_diagnose_exactly_identified_rank_deficient_second_stage_exits_3(tmp_path, capsys):
    # The price is 1 + 2 x1, so its first-stage fit is x1's column again. The F is computed, and
    # the 2SLS fit, which runs though the J is skipped, is refused.
    x1 = [0, 1, 2, 3, 0, 1, 2, 5]
    spec_path = _small_tsls_inputs(tmp_path, {"x1": x1, "price": [1 + 2 * v for v in x1],
                                              "z": [2, 0, 1, 1, 3, 0, 2, 1]})
    assert main(["diagnose", "--spec", str(spec_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: design is rank deficient")


def test_diagnose_without_instruments_exits_4(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["instruments"] = []
    spec["estimator"] = "ols"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["diagnose", "--spec", str(spec_path)]) == 4


def test_diagnose_on_fixed_effects_spec_exits_2(tmp_path, capsys):
    spec_path, _ = _sim_inputs(tmp_path)
    spec = json.loads(spec_path.read_text())
    spec["estimator"] = "two_way_fe"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["diagnose", "--spec", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'two_way_fe'" in captured.err
    assert "not supported yet" in captured.err


@pytest.fixture(scope="module")
def diagnose_dir(tmp_path_factory):
    """A directory holding a generated 5x4 panel, three cost shifters and the dependent."""
    folder = tmp_path_factory.mktemp("diagnose")
    params = DgpParams(n_products=5, n_periods=4, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.5, price_endogeneity=0.5, n_instruments=3, seed=5)
    write_panel_csv(compute_dependent(generate_market(params)[0]), folder / "panel.csv")
    return folder


@st.composite
def diagnose_specs(draw):
    endogenous = draw(st.lists(st.sampled_from(["price", "x1", "x2"]), max_size=2, unique=True))
    return {
        "dataset": "panel.csv",
        "dependent": DEPENDENT_COLUMN,
        "exogenous": [name for name in ("x1", "x2") if name not in endogenous],
        "endogenous": endogenous,
        # market_size is the constant 1: with an intercept the first stage loses rank.
        "instruments": draw(st.lists(st.sampled_from(["cost1", "cost2", "cost3", "market_size"]),
                                     max_size=3, unique=True)),
        "estimator": draw(st.sampled_from(["ols", "tsls", "two_way_fe"])),
        "intercept": draw(st.booleans()),
    }


@settings(max_examples=200, deadline=None)
@given(spec=diagnose_specs())
def test_diagnose_exits_by_the_spec_roles(diagnose_dir, spec):
    spec_path = diagnose_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["diagnose", "--spec", str(spec_path)])
    if code:
        assert code in (2, 3, 4)
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        return
    assert len(spec["endogenous"]) == 1
    f = re.search(r"^  F: +(\S+)$", out.getvalue(), re.MULTILINE).group(1)
    assert f == "inf" or math.isfinite(float(f))
    assert ("Sargan J test (H0" in out.getvalue()) == (len(spec["instruments"]) > 1)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    """A directory holding a generated 6x5 panel with sampled quantities and a 2SLS spec, in three
    forms: quantities (clean.csv), a share column in their place (share.csv) and the output of
    `invert` (inverted.csv)."""
    folder = tmp_path_factory.mktemp("mutations")
    params = DgpParams(n_products=6, n_periods=5, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.5, price_endogeneity=0.5, consumers=1000, seed=9)
    data = generate_market(params)[0]
    write_panel_csv(data, folder / "clean.csv")
    columns = {name: arr for name, arr in data.columns.items()
               if name not in ("quantity", "market_size")}
    share = data.column("quantity") / data.column("market_size")
    write_panel_csv(dataclasses.replace(data, columns={**columns, "share": share}),
                    folder / "share.csv")
    write_panel_csv(compute_dependent(data), folder / "inverted.csv")
    (folder / "spec.json").write_text(json.dumps({
        "dataset": "clean.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1", "x2"],
        "endogenous": ["price"], "instruments": ["cost1", "cost2"], "estimator": "tsls",
    }), encoding="utf-8")
    return folder


def _run_under_the_exit_contract(argv):
    """Run `main(argv)` under warnings as errors, with blocks of 4 records so that a mutation
    lands in a block numpy's reader converts or in one it refuses, and return its exit code and
    stderr. Nothing may escape `main`. A failure is one `error:` line on stderr and nothing on
    stdout. A success writes its report to stdout or `--output` and notes alone to stderr, and
    the report prints no number that is not finite, but a first-stage F of inf (an exact first
    stage)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(dataio, "BLOCK_RECORDS", 4), warnings.catch_warnings(), \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code:
        assert code in (2, 3, 4)
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        return code, err.getvalue()
    # `invert` prints its report and writes the inverted panel to `--output`.
    output = None if argv[0] == "invert" or "--output" not in argv else argv[argv.index("--output") + 1]
    report = out.getvalue() if output is None else Path(output).read_text(encoding="utf-8")
    assert report and (output is None or out.getvalue() == "")
    assert all(line.startswith("note: ") for line in err.getvalue().splitlines())
    for line in report.splitlines():
        assert (not re.search(r"\b(nan|inf)\b", line, re.I)
                or re.fullmatch(r"  F: +inf", line)), line
    return code, err.getvalue()


#: Cells a mutated panel may hold; "\udcff" is written as the byte 0xff, which is not UTF-8.
EDGE_CELLS = ["", "nan", "inf", "1e308", "-1e308", "1e-320", "1e400", "1_0", "0x10", "１",
              "\udcff", '"', "\x1c3\x1f", "0", "-0.5"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_panel_keeps_the_exit_contract(mutation_dir, data):
    """One cell or record of a clean panel, in one of its three forms, mutated; `invert`,
    `estimate` and `diagnose` on it keep the exit contract, and a panel refused on exit 2 is
    refused at a line it names, or for the unit and period it repeats."""
    form = data.draw(st.sampled_from(["clean", "share", "inverted"]))
    records = (mutation_dir / f"{form}.csv").read_bytes().decode("utf-8").split("\r\n")[:-1]
    k = data.draw(st.integers(1, len(records) - 1))
    kind = data.draw(st.sampled_from(["cell", "short", "long", "repeat", "blank"]))
    if kind == "cell":
        cells = records[k].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(EDGE_CELLS))
        records[k] = ",".join(cells)
    elif kind == "short":
        records[k] = records[k].rpartition(",")[0]
    elif kind == "long":
        records[k] += ",0.5"
    else:
        records.insert(k, records[k] if kind == "repeat" else "")
    path = mutation_dir / "mutated.csv"
    path.write_bytes(("\r\n".join(records) + "\r\n").encode("utf-8", "surrogateescape"))
    spec = str(mutation_dir / "spec.json")
    for argv in (["invert", "--data", str(path), "--output", str(mutation_dir / "out.csv")],
                 ["estimate", "--spec", spec, "--data", str(path)],
                 ["diagnose", "--spec", spec, "--data", str(path)]):
        code, err = _run_under_the_exit_contract(argv)
        if code == 2:
            assert re.search(r"\bline \d+\b|: duplicate row for unit ", err), err


@pytest.mark.parametrize("command", ["invert", "estimate"])
@pytest.mark.parametrize("fault", ["missing", "not_positive", "no_outside_share"])
@pytest.mark.parametrize("form", ["clean", "share", "inverted"])
def test_each_share_fault_exits_2_naming_its_line_and_period(mutation_dir, tmp_path, form, fault,
                                                             command):
    """One share fault in line 9 (unit P02, period 2003) of each form of the mutation panel: a
    missing share, a share at or below 0 (a quantity of 5e-324, whose share underflows to 0), or
    shares that leave no outside share (a share of 1, or a quantity equal to the market size,
    which the loader refuses). `invert` and `estimate` exit 2 naming the line and the period,
    the first line of the period for the last fault. `estimate` builds no dependent from the
    quantities of the inverted form, whose own `log_share_diff` it reads: it exits 0 there but
    for the loader's fault."""
    records = (mutation_dir / f"{form}.csv").read_bytes().decode("utf-8").split("\r\n")[:-1]
    header = records[0].split(",")
    rows = [record.split(",") for record in records]
    column = "share" if form == "share" else "quantity"
    j, k = header.index(column), 8
    unit, period = rows[k][:2]
    size = rows[k][header.index("market_size")] if column == "quantity" else None
    rows[k][j] = {"missing": "", "not_positive": "-0.5" if column == "share" else "5e-324",
                  "no_outside_share": size or "1"}[fault]
    path = tmp_path / "faulty.csv"
    path.write_bytes("".join(",".join(row) + "\r\n" for row in rows).encode("utf-8"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**json.loads((mutation_dir / "spec.json").read_text()),
                                "dataset": str(path)}), encoding="utf-8")
    argv = (["invert", "--data", str(path), "--output", str(tmp_path / "out.csv")]
            if command == "invert" else ["estimate", "--spec", str(spec)])
    code, err = _run_under_the_exit_contract(argv)
    if form == "inverted" and command == "estimate" and fault != "no_outside_share":
        assert (code, err) == (0, "")
        return
    if fault == "missing":
        where, problem = k + 1, ("missing share" if column == "share"
                                 else f"missing quantity or market size for unit {unit!r}")
    elif fault == "not_positive":
        where, problem = k + 1, f"inside share {-0.5 if size is None else 0:g} must be positive"
    else:
        in_period = [row for row in rows[1:] if row[1] == period]
        where, total = 1 + rows.index(in_period[0]), sum(float(row[j]) for row in in_period)
        problem = (f"inside shares sum to {total:g}, outside share must be positive" if size is None
                   else f"total quantity {total:g} >= market size {float(size):g}")
    assert code == 2
    assert err == f"error: column {column!r}, row line {where}: period {period}: {problem}\n"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_options_keep_the_exit_contract(mutation_dir, data):
    """`estimate` with drawn `--method`, `--robust`, `--format` and `--output`, and `diagnose`
    with a drawn `--output`, on the clean panel keep the exit contract; an `--output` in a
    missing directory exits 2."""
    command = data.draw(st.sampled_from(["estimate", "diagnose"]))
    argv = [command, "--spec", str(mutation_dir / "spec.json")]
    if command == "estimate":
        method = data.draw(st.sampled_from([None, "ols", "fe", "2sls"]))
        argv += [] if method is None else ["--method", method]
        argv += ["--robust"] if data.draw(st.booleans()) else []
        fmt = data.draw(st.sampled_from([None, "text", "csv"]))
        argv += [] if fmt is None else ["--format", fmt]
    output = data.draw(st.sampled_from([None, "report.txt", "missing/report.txt"]))
    argv += [] if output is None else ["--output", str(mutation_dir / output)]
    code, err = _run_under_the_exit_contract(argv)
    if output == "missing/report.txt":
        assert code == 2 and "No such file or directory" in err, err


def test_simulate_emits_loadable_dataset(tmp_path, capsys):
    params = {"n_products": 4, "n_periods": 3, "n_characteristics": 1,
              "beta": [1.0], "seed": 6, "replications": 1}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "synthetic.csv"
    code = main(["simulate", "--params", str(params_path), "--emit-dataset", str(out)])
    assert code == 0
    data = load_panel(out)
    assert data.n_rows == 12
    assert (tmp_path / "synthetic.csv.manifest.json").exists()
    assert "Monte Carlo summary" in capsys.readouterr().out


def test_simulate_emitted_dataset_is_the_first_replication(tmp_path, capsys):
    params = {"n_products": 6, "n_periods": 8, "n_characteristics": 1,
              "beta": [1.0], "xi_scale": 0.5, "seed": 6, "replications": 1}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "synthetic.csv"
    assert main(["simulate", "--params", str(params_path), "--emit-dataset", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()

    dgp = DgpParams(n_products=6, n_periods=8, n_characteristics=1, beta=(1.0,), xi_scale=0.5,
                    seed=6)
    result = estimate(default_model_spec(dgp), compute_dependent(load_panel(out)))
    estimates = dict(zip(result.names, result.coefficients))
    table = [line.split() for line in summary[2:2 + len(estimates)]]
    assert [row[0] for row in table] == list(result.names)
    for name, truth, bias, *_ in table:
        assert estimates[name] - float(truth) == pytest.approx(float(bias), abs=5.1e-5)
    manifest = json.loads((tmp_path / "synthetic.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == replication_seeds(6, 1)[0]


def test_simulate_same_seed_same_bytes(tmp_path, capsys):
    params = {"n_products": 5, "n_periods": 5, "n_characteristics": 1,
              "beta": [0.8], "xi_scale": 0.4, "seed": 12, "replications": 10}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    assert main(["simulate", "--params", str(params_path)]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--params", str(params_path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["simulate", "--params", str(params_path), "--seed", "13"]) == 0
    third = capsys.readouterr().out
    assert first != third


def test_simulate_bundled_params(capsys):
    params = Path(__file__).resolve().parents[1] / "specs" / "mc_endogenous_price.json"
    assert main(["simulate", "--params", str(params), "--replications", "1"]) == 0
    assert "Monte Carlo summary: 1/1 replications" in capsys.readouterr().out


# The generator's cost shifters are standard normal and price has no intercept; the keys that
# once set them are unknown like any other.
@pytest.mark.parametrize("key", ["typo", "cost_loc", "cost_scale", "price_intercept"])
def test_simulate_rejects_unknown_keys(tmp_path, capsys, key):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"n_products": 2, "n_periods": 2, key: 1}),
                           encoding="utf-8")
    assert main(["simulate", "--params", str(params_path)]) == 5
    assert f"unknown parameter keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"n_products": 0}, "need at least one product and one period"),
    ({"n_products": 2.5}, "n_products must be an integer"),
    ({"n_products": True}, "n_products must be an integer"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"consumers": 10.5}, "consumers must be an integer"),
    ({"replications": 2.7}, "replications must be an integer"),
    ({"consumers": 10**30}, "consumers must fit a 64-bit integer"),
    # Utilities overflow in every draw: each replication gives up re-drawing.
    ({"alpha": 1e308, "n_characteristics": 1, "beta": [1.0]},
     "every replication failed (DegenerateSharesError 3); nothing to summarize"),
    ({"alpha": "x"}, "alpha must be a finite number"),
    ({"characteristic_loc": "a"}, "characteristic_loc must be a finite number"),
    ({"beta": 1}, "beta must be a sequence of finite numbers"),
    ({"unit_effects": "ab"}, "unit_effects must be a sequence of finite numbers"),
    ({"xi_scale": float("nan")}, "xi_scale must be a finite number"),
    ({"xi_scale": True}, "xi_scale must be a finite number"),
    ({"price_endogeneity": float("nan")}, "price_endogeneity must be a finite number"),
    ({"alpha": float("inf")}, "alpha must be a finite number"),
    ({"time_effects": [0.0, 10**400]}, "time_effects must be a sequence of finite numbers"),
])
def test_simulate_rejects_invalid_values(tmp_path, capsys, override, message):
    params_path = tmp_path / "params.json"
    params = {"n_products": 3, "n_periods": 2, "seed": 4, "replications": 3, **override}
    params_path.write_text(json.dumps(params), encoding="utf-8")
    assert main(["simulate", "--params", str(params_path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "line 1, column '': parameter must be a JSON object"),
    ('{"n_periods": 2}', "parameter is missing required field 'n_products'"),
    ('{"n_products": 2,\n "n_periods": }', "line 2, column '': invalid JSON: Expecting value"),
])
def test_simulate_params_file_faults_exit_5(tmp_path, capsys, content, message):
    params_path = tmp_path / "params.json"
    params_path.write_text(content, encoding="utf-8")
    assert main(["simulate", "--params", str(params_path)]) == 5
    assert capsys.readouterr() == ("", f"error: {message}\n")


# A byte that is not UTF-8 is reported on its line, as in a panel CSV, with the command's code.
@pytest.mark.parametrize("command, option, content, line", [
    ("estimate", "--spec",
     b'{"dataset": "x.csv", "dependent": "y\xff", "estimator": "ols"}', 1),
    ("estimate", "--spec",
     b'{"dataset": "x.csv",\n "estimator": "ols",\n "dependent": "y\xff"}\n', 3),
    ("simulate", "--params", b'{"n_products": 2, "n_periods": 2, "alpha": "\xff"}', 1),
    ("simulate", "--params", b'{"n_products": 2,\n "n_periods": 2,\n "alpha": "\xff"\n}\n', 3),
], ids=["spec_line_1", "spec_line_3", "params_line_1", "params_line_3"])
def test_json_file_that_is_not_utf8_names_its_line(tmp_path, capsys, command, option, content, line):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    assert main([command, option, str(path)]) == (2 if command == "estimate" else 5)
    assert capsys.readouterr() == ("", f"error: line {line}, column '': not valid UTF-8\n")


# Entries near 1e308 overflow inside both solvers; the failure is reported on one line.
@pytest.mark.filterwarnings("error")
def test_simulate_on_huge_regressors_warns_nothing(tmp_path, capsys):
    params = {"n_products": 3, "n_periods": 2, "seed": 4, "replications": 3,
              "characteristic_scale": 1e308, "n_characteristics": 1, "beta": [0.0], "consumers": 100}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    assert main(["simulate", "--params", str(params_path)]) == 5
    assert capsys.readouterr() == (
        "", "error: every replication failed (RankDeficientError 3); nothing to summarize\n")


# A dependent near 1e308 overflows the residual sum of squares: exit 3, not a table of infs.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("estimator, roles", [
    ("ols", {}),
    ("two_way_fe", {"intercept": False}),
    ("tsls", {"endogenous": ["price"], "instruments": ["cost1"]}),
])
def test_estimate_that_overflows_exits_3(tmp_path, capsys, estimator, roles):
    params = DgpParams(n_products=4, n_periods=4, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.3, price_endogeneity=0.5, consumers=1000, seed=3)
    data, _ = generate_market(params)
    x1 = data.column("x1").copy()
    x1[5] = 1e308
    write_panel_csv(data.with_column("x1", x1), tmp_path / "huge.csv")
    spec = {"dataset": "huge.csv", "dependent": "x1", "exogenous": ["x2"], "estimator": estimator}
    (tmp_path / "spec.json").write_text(json.dumps({**spec, **roles}), encoding="utf-8")
    assert main(["estimate", "--spec", str(tmp_path / "spec.json")]) == 3
    assert capsys.readouterr() == (
        "", "error: the fit overflows: its residual sum of squares is not finite; rescale the "
            "dependent or the regressors\n")


# A price near 1e160 or beyond: the first stage's sums of squares overflow. `diagnose` says so on
# one line, with no warning, and `estimate` refuses the second stage, whose price column dwarfs
# the others, as rank deficient in exactly the columns below 1e-10 of price's norm.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("command, message", [
    ("diagnose", "the first stage overflows: its residual sum of squares is not finite; rescale "
                 "the endogenous regressor or the instruments\n"),
    ("estimate", "design is rank deficient in columns ['const', 'x1', 'x2']\n"),
], ids=["diagnose", "estimate"])
def test_a_first_stage_that_overflows_exits_3(tmp_path, capsys, scale, command, message):
    params = DgpParams(n_products=4, n_periods=4, n_characteristics=2, beta=(1.0, -0.5),
                       xi_scale=0.3, price_endogeneity=0.5, consumers=1000, seed=3)
    data, _ = generate_market(params)
    write_panel_csv(data.with_column("price", data.column("price") * scale), tmp_path / "huge.csv")
    spec = {"dataset": "huge.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1", "x2"],
            "endogenous": ["price"], "instruments": ["cost1", "cost2"], "estimator": "tsls"}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "--spec", str(tmp_path / "spec.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {message}")


# Regressors near 1e154 under two-way fixed effects: x1 varies within units, and the squares of
# its norms overflow. The design has full rank, but price and the period dummies lie below 1e-10
# of x1's norm: the fit is refused on one line that names them and says to rescale, with no
# warning and without calling x1 constant within units or collinear.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, code, message", [
    ("estimate", 3, "the norms of columns ['period[2002]', 'period[2003]', 'price'] are at most "
                    "1e-10 of the norm of 'x1'; rescale the regressors"),
    ("simulate", 5,
     "every replication failed (CollinearWithFixedEffectsError 4); nothing to summarize"),
], ids=["estimate", "simulate"])
def test_fixed_effects_on_huge_regressors_fail_on_one_line(tmp_path, capsys, command, code,
                                                           message):
    params = {"n_products": 4, "n_periods": 3, "n_characteristics": 1, "beta": [0.0],
              "xi_scale": 0.5, "characteristic_scale": 1e154, "seed": 4, "consumers": 100}
    write_panel_csv(generate_market(DgpParams(**params))[0], tmp_path / "huge.csv")
    spec = {"dataset": "huge.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1"],
            "endogenous": ["price"], "estimator": "two_way_fe"}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "params.json").write_text(
        json.dumps({**params, "estimator": "two_way_fe", "replications": 4}), encoding="utf-8")
    option = ["--spec", str(tmp_path / "spec.json")] if command == "estimate" else [
        "--params", str(tmp_path / "params.json")]
    assert main([command, *option]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Cells near 1e308 whose sum within a unit overflows under two-way fixed effects: one panel is
# refused on one line that says to rescale, and a Monte Carlo fails each such market as its own
# panel does, with no ValueError from the solver.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, code, message", [
    ("estimate", 3, "the fit overflows: a column's sum within a unit is not finite; rescale the "
                    "dependent or the regressors"),
    ("simulate", 5, "every replication failed (CollinearWithFixedEffectsError 2, EstimationError 2); "
                    "nothing to summarize"),
], ids=["estimate", "simulate"])
def test_fixed_effects_on_unit_sums_that_overflow_fail_on_one_line(tmp_path, capsys, command, code,
                                                                   message):
    data, _ = generate_market(DgpParams(n_products=4, n_periods=3, beta=(1.0,), xi_scale=0.5,
                                        seed=4, consumers=100))
    x1 = data.column("x1").copy()
    x1[:2] = 1.5e308
    write_panel_csv(data.with_column("x1", x1), tmp_path / "huge.csv")
    spec = {"dataset": "huge.csv", "dependent": DEPENDENT_COLUMN, "exogenous": ["x1"],
            "endogenous": ["price"], "estimator": "two_way_fe"}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    params = {"n_products": 4, "n_periods": 3, "n_characteristics": 1, "beta": [0.0],
              "xi_scale": 0.5, "characteristic_scale": 1e308, "seed": 4, "consumers": 100,
              "estimator": "two_way_fe", "replications": 4}
    (tmp_path / "params.json").write_text(json.dumps(params), encoding="utf-8")
    option = ["--spec", str(tmp_path / "spec.json")] if command == "estimate" else [
        "--params", str(tmp_path / "params.json")]
    assert main([command, *option]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_simulate_reports_failures_by_class_and_redraws(tmp_path, capsys):
    # A product with utility near 29 leaves the outside share near 1e-12: most draws are
    # rejected, and some replications give up after the bounded number of re-draws.
    params = {"n_products": 3, "n_periods": 2, "n_characteristics": 1, "beta": [1.0],
              "xi_scale": 1.0, "unit_effects": [29.0, 0.0, 0.0], "seed": 5, "replications": 20}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    assert main(["simulate", "--params", str(params_path)]) == 0
    lines = capsys.readouterr().out.splitlines()

    dgp = DgpParams(n_products=3, n_periods=2, n_characteristics=1, beta=(1.0,), xi_scale=1.0,
                    unit_effects=(29.0, 0.0, 0.0), seed=5)
    summary = run_monte_carlo(dgp, default_model_spec(dgp), 20)
    assert summary.failures == {"DegenerateSharesError": summary.failed} and summary.failed > 0
    assert lines[0] == (f"Monte Carlo summary: {summary.completed}/20 replications "
                        f"({summary.failed} failed: DegenerateSharesError {summary.failed})")
    assert lines[-1] == f"re-draws: {summary.redraws}"
    assert summary.redraws > 0


@pytest.mark.parametrize("override", [["--replications", "0"], ["--replications", "-3"], []])
def test_simulate_without_replications_exits_5_and_writes_nothing(tmp_path, capsys, override):
    params = {"n_products": 4, "n_periods": 3, "seed": 6, "replications": 0 if not override else 2}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "synthetic.csv"
    argv = ["simulate", "--params", str(params_path), "--emit-dataset", str(out), *override]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one replication\n"
    assert [p.name for p in tmp_path.iterdir()] == ["params.json"]


def test_simulate_that_fails_everywhere_exits_5_and_writes_nothing(tmp_path, capsys):
    # A constant x1 beside the intercept: every replication is rank deficient.
    params = {"n_products": 5, "n_periods": 4, "n_characteristics": 1, "beta": [1.0],
              "xi_scale": 0.5, "characteristic_scale": 0.0, "characteristic_loc": 1.0,
              "seed": 3, "replications": 3}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--params", str(params_path), "--emit-dataset", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: every replication failed (RankDeficientError 3); "
                            "nothing to summarize\n")
    assert [p.name for p in tmp_path.iterdir()] == ["params.json"]


@pytest.mark.parametrize("command", ["invert", "estimate", "diagnose", "simulate"])
def test_output_in_a_missing_directory_exits_without_writing(tmp_path, capsys, command):
    spec_path, csv_path = _sim_inputs(tmp_path)
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"n_products": 4, "n_periods": 3, "replications": 2}),
                           encoding="utf-8")
    target = str(tmp_path / "missing" / "out.csv")
    argv = {
        "invert": ["invert", "--data", str(csv_path), "--output", target],
        "estimate": ["estimate", "--spec", str(spec_path), "--output", target],
        "diagnose": ["diagnose", "--spec", str(spec_path), "--output", target],
        "simulate": ["simulate", "--params", str(params_path), "--emit-dataset", target],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == (5 if command == "simulate" else 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "out.csv" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


# --- the exit-code policy ------------------------------------------------------
# Each error class `main` catches and the code it exits with: (spec command, simulate).
# A package error class missing here fails the test, so each new one gets its code on purpose.
EXIT_CODES = {
    "LogitDemandError": (2, 5),
    "EstimationError": (3, 5),
    "RankDeficientError": (3, 5),
    "InsufficientObservationsError": (3, 5),
    "CollinearWithFixedEffectsError": (3, 5),
    "MultipleEndogenousError": (3, 5),
    "ExactlyIdentifiedError": (3, 5),
    "OrderConditionViolatedError": (4, 5),
    "ZeroQuantityError": (2, 5),
    "OutsideShareNonPositiveError": (2, 5),
    "ParseError": (2, 5),
    "DuplicateKeyError": (2, 5),
    "DomainViolationError": (2, 5),
    "UnknownKeyError": (2, 5),
    "MissingRequiredError": (2, 5),
    "UnknownColumnError": (2, 5),
    "DegenerateSharesError": (2, 5),
    "OSError": (2, 5),
    "ValueError": (2, 5),
}
CAUGHT = [c for c in vars(errors).values()
          if isinstance(c, type) and issubclass(c, errors.LogitDemandError)] + [OSError, ValueError]


@pytest.mark.parametrize("error", CAUGHT, ids=lambda c: c.__name__)
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, command, error):
    exc = error.__new__(error)
    Exception.__init__(exc, "boom")

    def fail(*args, **kwargs):
        raise exc

    if command == "estimate":
        monkeypatch.setattr(dataio, "parse_spec", fail)
        argv = ["estimate", "--spec", str(tmp_path / "spec.json")]
    else:
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"n_products": 2, "n_periods": 2}), encoding="utf-8")
        monkeypatch.setattr(simulate, "run_monte_carlo", fail)
        argv = ["simulate", "--params", str(params_path)]
    assert main(argv) == EXIT_CODES[error.__name__][command == "simulate"]
    assert capsys.readouterr() == ("", "error: boom\n")


def test_an_exact_ols_fit_prints_nan_t_and_p_values(tmp_path, capsys):
    # y is 0 on every row: the fit is exact in any arithmetic, and its standard errors are 0.
    (tmp_path / "exact.csv").write_text("unit,period,y,x\na,2001,0,0\nb,2001,0,1\nc,2001,0,3\n",
                                        encoding="utf-8")
    spec = {"dataset": "exact.csv", "dependent": "y", "exogenous": ["x"], "estimator": "ols"}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["estimate", "--spec", str(tmp_path / "spec.json")]) == 0
    out, err = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()[2:4]]
    assert err == "" and rows == [["const", "0.000", "(0.000)", "nan", "nan"],
                                  ["x", "0.000", "(0.000)", "nan", "nan"]]
