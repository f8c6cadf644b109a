"""The README quick start through `cli.main`: every command's text output is pinned byte for byte.

The files under tests/quickstart/ hold the stdout of each command, in order. A change that
moves any printed digit, label or line fails here and must say why in CHANGES.md before the
files are written again (run the commands below in an empty directory that holds a copy of
specs/).
"""

import shutil
from pathlib import Path

import pytest

from logitdemand.cli import main

PINNED = Path(__file__).parent / "quickstart"
SPECS = Path(__file__).parents[1] / "specs"

SPEC = ["--spec", "specs/synthetic_tsls.json"]
COMMANDS = [
    ("simulate", ["simulate", "--params", "specs/mc_endogenous_price.json",
                  "--replications", "500", "--emit-dataset", "synthetic.csv"]),
    ("invert", ["invert", "--data", "synthetic.csv", "--output", "inverted.csv"]),
    ("estimate", ["estimate", *SPEC]),
    ("estimate_fe", ["estimate", *SPEC, "--method", "fe"]),
    ("estimate_ols", ["estimate", *SPEC, "--method", "ols"]),
    ("diagnose", ["diagnose", *SPEC]),
]


@pytest.fixture
def quickstart_dir(tmp_path, monkeypatch):
    shutil.copytree(SPECS, tmp_path / "specs")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_quickstart_output_is_byte_identical_to_the_pinned_files(quickstart_dir, capsys):
    for name, argv in COMMANDS:
        assert main(argv) == 0, name
        captured = capsys.readouterr()
        assert captured.err == "", name
        assert captured.out.encode("utf-8") == (PINNED / f"{name}.txt").read_bytes(), name
