"""Panel CSV ingestion, validation, and model-spec configuration files.

The on-disk format is a UTF-8 CSV with a header row, comma delimiter and `.`
decimals. Every file needs a `unit` column (product identifier) and an integer
`period` column; all other columns are numeric. Empty cells are treated as
missing and excluded per estimation (listwise), never imputed.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import demand
from .errors import (
    DomainViolationError,
    DuplicateKeyError,
    MissingRequiredError,
    ParseError,
    UnknownColumnError,
    UnknownKeyError,
)
from .estimators import ModelSpec, estimator_defaults

#: Columns validated as 0/1 dummies unless the caller overrides.
DEFAULT_DUMMY_COLUMNS = ("Alone", "Subscribe")

DEPENDENT_COLUMN = "log_share_diff"


@dataclass(frozen=True)
class PanelDataset:
    """Long-format panel: one row per (unit, period), numeric columns, NaN = missing."""

    units: tuple
    periods: tuple
    columns: dict
    column_kinds: dict
    source_lines: tuple | None = None
    #: The sorted distinct periods, and each row's index into them; set on construction.
    period_levels: np.ndarray = field(init=False, repr=False, compare=False)
    period_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(str(u) for u in self.units))
        object.__setattr__(self, "periods", tuple(int(t) for t in self.periods))
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=float).reshape(-1)
            if arr.shape[0] != self.n_rows:
                raise ValueError(f"column {name!r} has {arr.shape[0]} rows, expected {self.n_rows}")
            arr = arr.copy()
            arr.flags.writeable = False
            cols[name] = arr
        object.__setattr__(self, "columns", cols)
        kinds = dict(self.column_kinds)
        for name in cols:
            kinds.setdefault(name, "continuous")
        object.__setattr__(self, "column_kinds", kinds)
        if len(self.units) != len(self.periods):
            raise ValueError("units and periods must align")
        levels, codes = np.unique(np.array(self.periods, dtype=np.int64), return_inverse=True)
        levels.flags.writeable = codes.flags.writeable = False
        object.__setattr__(self, "period_levels", levels)
        object.__setattr__(self, "period_codes", codes)
        _validate_dataset(self)

    @property
    def n_rows(self) -> int:
        return len(self.units)

    def has_column(self, name) -> bool:
        return name in self.columns

    def column(self, name) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}")
        return self.columns[name]

    def row_label(self, i) -> str:
        if self.source_lines is not None:
            return f"line {self.source_lines[i]}"
        return f"row {i} (unit {self.units[i]!r}, period {self.periods[i]})"

    def complete_rows(self, names) -> np.ndarray:
        """Mask of rows with no missing value in any of the named columns."""
        mask = np.ones(self.n_rows, dtype=bool)
        for name in names:
            mask &= ~np.isnan(self.column(name))
        return mask

    def with_column(self, name, values, kind="continuous") -> "PanelDataset":
        cols = dict(self.columns)
        cols[name] = np.asarray(values, dtype=float)
        kinds = dict(self.column_kinds)
        kinds[name] = kind
        return PanelDataset(self.units, self.periods, cols, kinds, self.source_lines)

    def subset(self, mask) -> "PanelDataset":
        mask = np.asarray(mask, dtype=bool)
        units = tuple(u for u, m in zip(self.units, mask) if m)
        periods = tuple(t for t, m in zip(self.periods, mask) if m)
        cols = {name: arr[mask] for name, arr in self.columns.items()}
        lines = None
        if self.source_lines is not None:
            lines = tuple(ln for ln, m in zip(self.source_lines, mask) if m)
        return PanelDataset(units, periods, cols, dict(self.column_kinds), lines)


def _validate_dataset(data: PanelDataset):
    # The first row whose (unit, period) key an earlier row already has.
    index = {u: i for i, u in enumerate(dict.fromkeys(data.units))}
    unit_codes = np.fromiter(map(index.__getitem__, data.units), np.intp, data.n_rows)
    keys = unit_codes * len(data.period_levels) + data.period_codes
    _, first = np.unique(keys, return_index=True)
    if first.size < data.n_rows:
        repeated = np.ones(data.n_rows, dtype=bool)
        repeated[first] = False
        i = int(np.argmax(repeated))
        raise DuplicateKeyError(data.units[i], data.periods[i])

    for name, kind in data.column_kinds.items():
        if kind != "dummy" or name not in data.columns:
            continue
        arr = data.columns[name]
        bad = ~np.isnan(arr) & (arr != 0.0) & (arr != 1.0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainViolationError(name, data.row_label(i), f"dummy value {arr[i]:g} is not 0 or 1")

    for name in ("quantity", "market_size"):
        if name not in data.columns:
            continue
        arr = data.columns[name]
        bad = ~np.isnan(arr) & (arr <= 0.0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainViolationError(name, data.row_label(i), f"value {arr[i]:g} must be positive")

    if "quantity" not in data.columns or "market_size" not in data.columns:
        return
    # Per period, in sorted order: one market size, and total quantity below it.
    q = data.columns["quantity"]
    n = data.columns["market_size"]
    codes, n_periods = data.period_codes, len(data.period_levels)
    known = ~np.isnan(n)
    low = np.full(n_periods, np.inf)
    high = np.full(n_periods, -np.inf)
    np.minimum.at(low, codes[known], n[known])
    np.maximum.at(high, codes[known], n[known])
    total = np.bincount(codes, weights=np.where(np.isnan(q), 0.0, q), minlength=n_periods)
    conflicting = high > low
    bad = conflicting | (total >= low)
    if not np.any(bad):
        return
    t = int(np.argmax(bad))
    rows = np.flatnonzero(codes == t)
    period = int(data.period_levels[t])
    if conflicting[t]:
        sizes = sorted(set(n[rows][known[rows]]))
        raise DomainViolationError(
            "market_size", data.row_label(rows[0]),
            f"period {period} carries conflicting market sizes {sizes}",
        )
    raise DomainViolationError(
        "quantity", data.row_label(rows[0]),
        f"period {period}: total quantity {total[t]:g} >= market size {low[t]:g}",
    )


def load_panel(path, unit_column="unit", period_column="period",
               dummy_columns=DEFAULT_DUMMY_COLUMNS) -> PanelDataset:
    """Load and validate a panel CSV; rows come back sorted by (unit, period)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "", "file is empty") from None
        header = [h.strip() for h in header]
        if unit_column not in header:
            raise ParseError(1, unit_column, "missing unit column")
        if period_column not in header:
            raise ParseError(1, period_column, "missing period column")
        u_pos = header.index(unit_column)
        t_pos = header.index(period_column)
        value_names = [h for k, h in enumerate(header) if k not in (u_pos, t_pos)]
        if len(set(header)) != len(header):
            dupe = next(h for h in header if header.count(h) > 1)
            raise ParseError(1, dupe, "duplicated column name")

        rows = []
        for line_no, record in enumerate(reader, start=2):
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if len(record) != len(header):
                raise ParseError(line_no, "", f"expected {len(header)} fields, got {len(record)}")
            unit = record[u_pos].strip()
            if not unit:
                raise ParseError(line_no, unit_column, "empty unit identifier")
            try:
                period = int(record[t_pos].strip())
            except ValueError:
                raise ParseError(
                    line_no, period_column, f"period {record[t_pos]!r} is not an integer"
                ) from None
            values = []
            for k, h in enumerate(header):
                if k in (u_pos, t_pos):
                    continue
                cell = record[k].strip()
                if cell == "":
                    values.append(float("nan"))
                    continue
                try:
                    x = float(cell)
                except ValueError:
                    raise ParseError(line_no, h, f"cannot parse {cell!r} as a number") from None
                if x != x or x in (float("inf"), float("-inf")):
                    raise ParseError(line_no, h, f"non-finite value {cell!r}")
                values.append(x)
            rows.append((unit, period, line_no, values))

    rows.sort(key=lambda r: (r[0], r[1]))
    units = tuple(r[0] for r in rows)
    periods = tuple(r[1] for r in rows)
    lines = tuple(r[2] for r in rows)
    columns = {
        name: np.array([r[3][j] for r in rows], dtype=float)
        for j, name in enumerate(value_names)
    }
    kinds = {name: ("dummy" if name in dummy_columns else "continuous") for name in value_names}
    kinds[unit_column] = "identifier"
    kinds[period_column] = "identifier"
    return PanelDataset(units, periods, columns, kinds, lines)


def write_panel_csv(data: PanelDataset, path):
    """Serialize a dataset back to the CSV schema; values round-trip bitwise."""
    names = list(data.columns)
    fields = [data.units, map(str, data.periods)]
    for name in names:
        fields.append("" if v != v else repr(v) for v in data.columns[name].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "period", *names])
        writer.writerows(zip(*fields))


def _inside_shares(data: PanelDataset):
    """Each row's inside share and the column it comes from: quantity / market_size where
    both columns exist, else the share column."""
    if data.has_column("quantity") and data.has_column("market_size"):
        return "quantity", data.column("quantity") / data.column("market_size")
    if data.has_column("share"):
        return "share", data.column("share")
    raise DomainViolationError(
        "quantity", "dataset",
        "need quantity and market_size columns (or a share column) to build the dependent",
    )


def compute_dependent(data: PanelDataset) -> PanelDataset:
    """Add the log-share-difference column from quantities or a share column."""
    if data.has_column(DEPENDENT_COLUMN):
        warnings.warn(f"column {DEPENDENT_COLUMN!r} already present; leaving it unchanged")
        return data

    column, inside = _inside_shares(data)
    if column == "quantity":
        problem = "missing quantity or market size for unit {unit!r}"
    else:
        problem = "missing share"
    # Quantities and market sizes are positive or NaN, so q / N is NaN exactly where one is missing.
    missing = np.isnan(inside)

    codes = data.period_codes
    sums = np.bincount(codes, weights=inside, minlength=len(data.period_levels))
    outside = 1.0 - sums
    # Per period in sorted order: a missing value, then no room for the outside option (quantities
    # were checked against the market size), then a share outside (0, 1]: invert_shares raises.
    flagged = missing | (outside <= 0.0)[codes] | (inside <= 0.0) | (inside > 1.0)
    if np.any(flagged):
        rows = np.flatnonzero(flagged)
        i = int(rows[np.argmin(codes[rows])])
        period_missing = missing & (codes == codes[i])
        if np.any(period_missing):
            i = int(np.argmax(period_missing))
            raise DomainViolationError(
                column, data.row_label(i),
                f"period {data.periods[i]}: " + problem.format(unit=data.units[i]),
            )
        if outside[codes[i]] <= 0.0 and column == "share":
            raise DomainViolationError(
                "share", data.row_label(i),
                f"period {data.periods[i]}: inside shares sum to {sums[codes[i]]:g}, "
                "outside share must be positive",
            )
    delta = demand.invert_shares(inside, outside, codes)
    return data.with_column(DEPENDENT_COLUMN, delta)


def outside_shares(data: PanelDataset) -> dict:
    """Per-period outside share 1 - sum of the inside shares that `compute_dependent` inverts.

    Periods with a missing inside share are left out.
    """
    _, inside = _inside_shares(data)
    codes, n_periods = data.period_codes, len(data.period_levels)
    complete = np.bincount(codes, weights=np.isnan(inside), minlength=n_periods) == 0
    outside = 1.0 - np.bincount(codes, weights=inside, minlength=n_periods)
    return dict(zip(data.period_levels[complete].tolist(), outside[complete].tolist()))


# --- model-spec files -------------------------------------------------------

#: Every spec-file key but "dataset", and the `ModelSpec` field it sets.
_SPEC_FIELDS = {
    "dependent": "dependent", "exogenous": "exogenous_regressors",
    "endogenous": "endogenous_regressors", "instruments": "instruments",
    "estimator": "estimator", "covariance": "covariance", "intercept": "include_intercept",
}


def parse_spec(path, dataset: PanelDataset | None = None) -> tuple:
    """Read a JSON model spec; return its `ModelSpec` and the resolved dataset path.

    This checks the JSON's shape; `ModelSpec` checks the estimator, the
    covariance, the column roles and the order condition. Relative dataset
    paths resolve against the spec file's directory. When a dataset is
    supplied, `check_columns` checks the spec against it.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, "", f"invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(1, "", "spec must be a JSON object")

    unknown = set(raw) - {"dataset", *_SPEC_FIELDS}
    if unknown:
        raise UnknownKeyError(f"unknown spec keys: {sorted(unknown)}")
    for required in ("dataset", "dependent", "estimator"):
        if required not in raw:
            raise MissingRequiredError(required)
    for key, kind, described in (
        ("dataset", str, "a string"), ("dependent", str, "a string"), ("intercept", bool, "a boolean"),
    ):
        if key in raw and not isinstance(raw[key], kind):
            raise ValueError(f"spec field {key!r} must be {described}")
    for key in ("exogenous", "endogenous", "instruments"):
        names = raw.get(key, [])
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise ValueError(f"spec field {key!r} must be a list of column names")

    fields = estimator_defaults(raw["estimator"])
    fields.update({_SPEC_FIELDS[key]: value for key, value in raw.items() if key != "dataset"})
    spec = ModelSpec(**fields)
    if dataset is not None:
        check_columns(spec, dataset)
    dataset_path = Path(raw["dataset"])
    if not dataset_path.is_absolute():
        dataset_path = (path.parent / dataset_path).resolve()
    return spec, dataset_path


def check_columns(spec: ModelSpec, data: PanelDataset):
    """Raise `UnknownColumnError` for the first column the spec names that `data` lacks.

    A missing log-share-difference dependent passes when `compute_dependent`
    can build it, and raises its `DomainViolationError` when it cannot.
    """
    for name in (spec.dependent, *spec.regressors, *spec.instruments):
        if data.has_column(name):
            continue
        if name != spec.dependent or name != DEPENDENT_COLUMN:
            raise UnknownColumnError(name)
        _inside_shares(data)


def results_csv_text(result) -> str:
    """One coefficient per row: name, estimate, std_error, t_value (full precision)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "estimate", "std_error", "t_value"])
    for row in result.coefficient_rows():
        writer.writerow([row[0], *(format(v, ".17g") for v in row[1:])])
    return buf.getvalue()


def write_results_csv(result, path):
    """Write `results_csv_text(result)` to `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(results_csv_text(result))
