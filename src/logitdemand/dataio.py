"""Panel CSV ingestion, validation, and model-spec configuration files.

The on-disk format is a UTF-8 CSV with a header row, comma delimiter and `.`
decimals. Every file needs a `unit` column (product identifier) and an integer
`period` column; all other columns are numeric. Empty cells are treated as
missing and excluded per estimation (listwise), never imputed.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
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

#: Columns validated as 0/1 dummies.
DUMMY_COLUMNS = ("Alone", "Subscribe")

DEPENDENT_COLUMN = "log_share_diff"


#: Records read, converted and written per block by `load_panel` and `write_panel_csv`.
BLOCK_RECORDS = 4096


@dataclass(frozen=True)
class PanelDataset:
    """Long-format panel: one row per (unit, period), numeric columns, NaN = missing."""

    units: tuple
    periods: tuple
    columns: dict
    column_kinds: dict
    source_lines: np.ndarray | None = None
    #: The sorted distinct units and periods, and each row's index into them; set on construction.
    unit_levels: np.ndarray = field(init=False, repr=False, compare=False)
    unit_codes: np.ndarray = field(init=False, repr=False, compare=False)
    period_levels: np.ndarray = field(init=False, repr=False, compare=False)
    period_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        units = tuple(map(str, self.units))
        periods = tuple(map(int, self.periods))
        columns = {name: _float_column(name, values, len(units))
                   for name, values in self.columns.items()}
        kinds = dict(self.column_kinds)
        for name in columns:
            kinds.setdefault(name, "continuous")
        if len(units) != len(periods):
            raise ValueError("units and periods must align")
        unit_levels = sorted(set(units))
        index = {u: i for i, u in enumerate(unit_levels)}
        period_levels, period_codes = np.unique(np.array(periods, dtype=np.int64), return_inverse=True)
        _fill(
            self, units=units, periods=periods, columns=columns, column_kinds=kinds,
            source_lines=None if self.source_lines is None else np.array(self.source_lines, np.int64),
            unit_levels=np.array(unit_levels, dtype=object),
            unit_codes=np.fromiter(map(index.__getitem__, units), np.intp, len(units)),
            period_levels=period_levels, period_codes=period_codes,
        )
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
        """A copy with column `name` added or replaced; only that column is validated."""
        data = _fill(
            copy.copy(self),
            columns={**self.columns, name: _float_column(name, values, self.n_rows)},
            column_kinds={**self.column_kinds, name: kind},
        )
        _validate_columns(data, (name,))
        return data

    def subset(self, mask) -> "PanelDataset":
        """The rows where `mask` is true; a subset of a valid panel needs no validation."""
        rows = np.flatnonzero(np.asarray(mask, dtype=bool))
        unit_used, unit_codes = np.unique(self.unit_codes[rows], return_inverse=True)
        period_used, period_codes = np.unique(self.period_codes[rows], return_inverse=True)
        unit_levels, period_levels = self.unit_levels[unit_used], self.period_levels[period_used]
        return _fill(
            object.__new__(PanelDataset),
            units=_labels(unit_levels, unit_codes), periods=_labels(period_levels, period_codes),
            columns={name: arr[rows] for name, arr in self.columns.items()},
            column_kinds=dict(self.column_kinds),
            source_lines=None if self.source_lines is None else self.source_lines[rows],
            unit_levels=unit_levels, unit_codes=unit_codes,
            period_levels=period_levels, period_codes=period_codes,
        )


def _fill(data: PanelDataset, **fields) -> PanelDataset:
    """Set fields of `data` from values already converted, coded and checked, and
    owned by it: their arrays become read-only."""
    for value in (*fields.values(), *fields.get("columns", {}).values()):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    data.__dict__.update(fields)
    return data


def _float_column(name, values, n_rows) -> np.ndarray:
    """A float copy of `values`, which must hold one value per row."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape[0] != n_rows:
        raise ValueError(f"column {name!r} has {arr.shape[0]} rows, expected {n_rows}")
    return arr.copy()


def _labels(levels: np.ndarray, codes: np.ndarray) -> tuple:
    """Each row's level as a Python value; rows with one level share one object."""
    return tuple(levels.astype(object)[codes].tolist())


def _validate_dataset(data: PanelDataset):
    # The first row whose (unit, period) key an earlier row already has.
    keys = data.unit_codes * len(data.period_levels) + data.period_codes
    _, first = np.unique(keys, return_index=True)
    if first.size < data.n_rows:
        repeated = np.ones(data.n_rows, dtype=bool)
        repeated[first] = False
        i = int(np.argmax(repeated))
        raise DuplicateKeyError(data.units[i], data.periods[i])
    _validate_columns(data, data.column_kinds)


def _validate_columns(data: PanelDataset, names):
    """Check the named columns: dummies are 0 or 1, quantities and market sizes
    positive, and each period has one market size, above its total quantity."""
    for name in names:
        if data.column_kinds.get(name) != "dummy" or name not in data.columns:
            continue
        arr = data.columns[name]
        bad = ~np.isnan(arr) & (arr != 0.0) & (arr != 1.0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainViolationError(name, data.row_label(i), f"dummy value {arr[i]:g} is not 0 or 1")

    for name in ("quantity", "market_size"):
        if name not in names or name not in data.columns:
            continue
        arr = data.columns[name]
        bad = ~np.isnan(arr) & (arr <= 0.0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainViolationError(name, data.row_label(i), f"value {arr[i]:g} must be positive")

    if ("quantity" not in names and "market_size" not in names
            or "quantity" not in data.columns or "market_size" not in data.columns):
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


def load_panel(path) -> PanelDataset:
    """Load and validate a panel CSV keyed by its `unit` and `period` columns; rows come back
    sorted by (unit, period), and `DUMMY_COLUMNS` must hold 0/1.

    Blank records (empty, whitespace-only or with every cell empty) are
    skipped. A fault is reported as a `ParseError` on the
    first faulty line (records are counted from the header, which is line 1)
    and, within it, on the unit, then the period, then the first faulty value
    column in header order. The file is read `BLOCK_RECORDS` records at a
    time and each block is converted column by column; a block with a fault
    or a blank record is scanned again row by row, which skips the blank
    records and raises the fault.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "", "file is empty") from None
        header = [h.strip() for h in header]
        for key in ("unit", "period"):
            if key not in header:
                raise ParseError(1, key, f"missing {key} column")
        u_pos = header.index("unit")
        t_pos = header.index("period")
        value_pos = [k for k in range(len(header)) if k not in (u_pos, t_pos)]
        value_names = [header[k] for k in value_pos]
        if len(set(header)) != len(header):
            dupe = next(h for h in header if header.count(h) > 1)
            raise ParseError(1, dupe, "duplicated column name")

        # Per block: unit codes (in order of first appearance), periods, lines, value columns.
        index = {}
        parts = [[np.empty(0, np.intp)], [np.empty(0, np.int64)], [np.empty(0, np.int64)],
                 *([np.empty(0)] for _ in value_pos)]
        first_line = 2
        for block in _blocks(reader):
            converted = _convert_block(block, first_line, len(header), u_pos, t_pos, value_pos, index)
            if converted is None:
                converted = _scan_block(block, first_line, header, u_pos, t_pos, index)
            for part, array in zip(parts, converted):
                part.append(array)
            first_line += len(block)

    unit_parts, period_parts, line_parts, *value_parts = parts
    # A period that does not fit int64 raises OverflowError here, after every ParseError.
    periods = np.concatenate([np.array(p, dtype=np.int64) for p in period_parts])
    unit_levels = np.array(sorted(index), dtype=object)
    rank = np.empty(len(index), np.intp)
    rank[[index[u] for u in unit_levels]] = np.arange(len(index))
    unit_codes = rank[np.concatenate(unit_parts)]
    order = np.lexsort((periods, unit_codes))
    unit_codes = unit_codes[order]
    period_levels, period_codes = np.unique(periods[order], return_inverse=True)
    kinds = {name: ("dummy" if name in DUMMY_COLUMNS else "continuous") for name in value_names}
    kinds["unit"] = kinds["period"] = "identifier"
    data = _fill(
        object.__new__(PanelDataset),
        units=_labels(unit_levels, unit_codes), periods=_labels(period_levels, period_codes),
        columns={name: np.concatenate(part)[order] for name, part in zip(value_names, value_parts)},
        column_kinds=kinds, source_lines=np.concatenate(line_parts)[order],
        unit_levels=unit_levels, unit_codes=unit_codes,
        period_levels=period_levels, period_codes=period_codes,
    )
    _validate_dataset(data)
    return data


def _blocks(reader):
    """The reader's records, `BLOCK_RECORDS` at a time. A decoding or CSV error is
    raised after the records before it, as a row-by-row read would meet them."""
    while True:
        block = []
        try:
            block.extend(itertools.islice(reader, BLOCK_RECORDS))
        except (csv.Error, ValueError):
            yield block
            raise
        if not block:
            return
        yield block


def _convert_block(block, first_line, width, u_pos, t_pos, value_pos, index):
    """A block's unit codes, periods, lines and value columns, converted column by
    column; None when a record is blank or ragged or a cell does not convert."""
    if set(map(len, block)) != {width}:
        return None
    n = len(block)
    cells = list(zip(*block))
    units = _unit_codes(cells[u_pos], index)
    if units is None:
        return None
    try:
        periods = np.fromiter(map(int, cells[t_pos]), np.int64, n)
    except (ValueError, OverflowError):
        return None
    values = []
    for k in value_pos:
        try:
            x = np.fromiter(map(float, cells[k]), float, n)
        except ValueError:
            try:
                x = np.fromiter(map(_number_or_nan, cells[k]), float, n)
            except ValueError:
                return None
        # NaN is allowed only for a blank cell, never for a "nan" or "inf" literal.
        if any(cells[k][i].strip() for i in np.flatnonzero(~np.isfinite(x)).tolist()):
            return None
        values.append(x)
    return (units, periods, np.arange(first_line, first_line + n), *values)


def _number_or_nan(cell) -> float:
    return float(cell) if cell.strip() else math.nan


def _unit_codes(cells, index):
    """Each cell's code in `index` (stripped unit -> code, grown in order of first
    appearance); None when a cell is blank."""
    code = {}
    for cell in set(cells):
        unit = cell.strip()
        if not unit:
            return None
        code[cell] = index.setdefault(unit, len(index))
    return np.fromiter(map(code.__getitem__, cells), np.intp, len(cells))


def _scan_block(block, first_line, header, u_pos, t_pos, index):
    """`_convert_block` row by row: skips blank records and raises the `ParseError`
    of the block's first faulty line."""
    units, periods, lines, rows = [], [], [], []
    for line_no, record in enumerate(block, start=first_line):
        if not record or all(cell.strip() == "" for cell in record):
            continue
        if len(record) != len(header):
            raise ParseError(line_no, "", f"expected {len(header)} fields, got {len(record)}")
        unit = record[u_pos].strip()
        if not unit:
            raise ParseError(line_no, header[u_pos], "empty unit identifier")
        try:
            period = int(record[t_pos].strip())
        except ValueError:
            raise ParseError(
                line_no, header[t_pos], f"period {record[t_pos]!r} is not an integer"
            ) from None
        values = []
        for k, h in enumerate(header):
            if k in (u_pos, t_pos):
                continue
            cell = record[k].strip()
            if cell == "":
                values.append(math.nan)
                continue
            try:
                x = float(cell)
            except ValueError:
                raise ParseError(line_no, h, f"cannot parse {cell!r} as a number") from None
            if x != x or x in (math.inf, -math.inf):
                raise ParseError(line_no, h, f"non-finite value {cell!r}")
            values.append(x)
        units.append(unit)
        periods.append(period)
        lines.append(line_no)
        rows.append(values)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header) - len({u_pos, t_pos}))
    return (_unit_codes(units, index), periods, np.array(lines, dtype=np.int64), *values.T)


def write_panel_csv(data: PanelDataset, path):
    """Serialize a dataset back to the CSV schema; values round-trip bitwise.

    The bytes are those `csv.writer` writes. Only unit ids can need quoting
    (numbers and periods never hold a comma, quote or line break), so
    `csv.writer` quotes each distinct unit once and the rows are joined
    directly, `BLOCK_RECORDS` at a time, column by column.
    """
    names = list(data.columns)
    units = np.array(_csv_fields(data.unit_levels.tolist()), dtype=object)[data.unit_codes]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["unit", "period", *names])
        for start in range(0, data.n_rows, BLOCK_RECORDS):
            rows = slice(start, start + BLOCK_RECORDS)
            fields = [units[rows].tolist(), map(str, data.periods[rows])]
            for name in names:
                arr = data.columns[name][rows]
                cells = list(map(repr, arr.tolist()))
                for i in np.flatnonzero(np.isnan(arr)).tolist():
                    cells[i] = ""
                fields.append(cells)
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _csv_fields(texts) -> list:
    """Each text as `csv.writer` writes it as the first of several fields."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow([text, ""])
        fields.append(buf.getvalue()[:-len(",\r\n")])
    return fields


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


def parse_spec(path) -> tuple:
    """Read a JSON model spec; return its `ModelSpec` and the resolved dataset path.

    This checks the JSON's shape; `ModelSpec` checks the estimator, the
    covariance, the column roles and the order condition. Relative dataset
    paths resolve against the spec file's directory. `check_columns` checks
    the spec against the loaded dataset.
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
