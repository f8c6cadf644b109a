"""The paper's four model specs (`specs/spec1-4.json`) run end to end through the CLI.

The console panel they name is not shipped, so a 22-row panel (11 products, 2 periods)
drawn by `generate_market` stands in for it, renamed to the paper's columns. The data
are synthetic: only exit codes and the shape of each report are checked, no numbers.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from logitdemand.cli import main
from logitdemand.dataio import DEPENDENT_COLUMN, compute_dependent, write_panel_csv
from logitdemand.simulate import DgpParams, generate_market

SPECS = Path(__file__).resolve().parents[1] / "specs"
CHARACTERISTICS = ("CPU", "RAM", "GPU", "Titles", "Storage", "Exclusive", "Core", "Vol", "grams")


@pytest.fixture(scope="module")
def console_panel(tmp_path_factory):
    """A 22-row stand-in for the paper's console panel, with every column its specs and
    two-way FE regressors name; products 0-4 adopt `Subscribe` in the second period."""
    params = DgpParams(n_products=11, n_periods=2, n_characteristics=len(CHARACTERISTICS),
                       beta=tuple(np.linspace(-0.4, 0.4, len(CHARACTERISTICS))), xi_scale=0.5,
                       price_endogeneity=0.5, seed=17)
    data = compute_dependent(generate_market(params)[0])
    renamed = {**{name: f"x{k + 1}" for k, name in enumerate(CHARACTERISTICS)},
               "Price": "price", "CPU_cost": "cost1", "RAM_cost": "cost2", "log": DEPENDENT_COLUMN}
    for name, column in renamed.items():
        data = data.with_column(name, data.column(column))
    data = data.with_column("Subscribe", (data.unit_codes < 5) & (data.period_codes == 1))
    assert data.n_rows == 22
    path = tmp_path_factory.mktemp("console") / "console_panel.csv"
    write_panel_csv(data, path)
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("number", [1, 2, 3, 4])
@pytest.mark.parametrize("method", [None, "fe"])
def test_estimate_runs_each_paper_spec(console_panel, number, method):
    spec_path = SPECS / f"spec{number}.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    argv = ["estimate", "--spec", str(spec_path), "--data", str(console_panel)]
    code, out, err = _run(argv + (["--method", method] if method else []))
    assert (code, err) == (0, "")
    rows = [line.split()[0] for line in out.split("\n\n")[0].splitlines()[2:]]
    regressors = [*spec["exogenous"], *spec["endogenous"]]
    assert rows == (regressors if method else ["const", *regressors])
    assert "\nobservations: 22\n" in out


@pytest.mark.parametrize("number", [1, 2, 3, 4])
def test_diagnose_runs_each_paper_spec(console_panel, number):
    code, out, err = _run(["diagnose", "--spec", str(SPECS / f"spec{number}.json"),
                           "--data", str(console_panel)])
    assert (code, err) == (0, "")
    assert out.startswith("First-stage F test (H0")
    assert "Sargan J test (H0" in out and "df (m - k)" in out
