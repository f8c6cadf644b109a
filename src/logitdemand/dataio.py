"""Panel CSV ingestion and validation, and the JSON spec and parameter files.

The on-disk format is a UTF-8 CSV with a header row, comma delimiter and `.`
decimals. Every file needs a `unit` column (product identifier) and an integer
`period` column; all other columns are numeric. Empty cells are treated as
missing and excluded per estimation (listwise), never imputed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass, replace
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


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Long-format panel keyed by codes: one row per (unit, period), numeric columns, NaN = missing.

    `unit_levels` (str) and `period_levels` (int) are sorted and distinct, and
    each row's `unit_codes` and `period_codes` index them. The panel owns the
    arrays it is given, which become read-only, and the whole panel is
    validated on construction: no repeated (unit, period) key, `DUMMY_COLUMNS`
    0 or 1, quantities and market sizes positive, and each period one market
    size above its total quantity. `from_rows` builds a panel from per-row labels.
    """

    unit_levels: np.ndarray
    unit_codes: np.ndarray
    period_levels: np.ndarray
    period_codes: np.ndarray
    columns: dict
    source_lines: np.ndarray | None = None

    def __post_init__(self):
        rows = {"unit_codes": self.unit_codes, "period_codes": self.period_codes,
                **{f"column {name!r}": arr for name, arr in self.columns.items()}}
        if self.source_lines is not None:
            rows["source_lines"] = self.source_lines
        arrays = (self.unit_levels, self.period_levels, *rows.values())
        if not all(isinstance(arr, np.ndarray) and arr.ndim == 1 for arr in arrays):
            raise ValueError("levels, codes, columns and source lines must be flat numpy arrays")
        n = self.unit_codes.size
        for name, arr in rows.items():
            if arr.size != n:
                raise ValueError(f"{name} has {arr.size} rows, expected {n}")
        for what, levels, codes in (("unit", self.unit_levels, self.unit_codes),
                                    ("period", self.period_levels, self.period_codes)):
            if codes.dtype.kind not in "iu" or (
                    n and not 0 <= codes.min() <= codes.max() < levels.size):
                raise ValueError(f"{what}_codes must be integers indexing {what}_levels")
            if np.any(levels[1:] <= levels[:-1]):
                raise ValueError(f"{what}_levels must be sorted and distinct")
        for arr in arrays:
            arr.flags.writeable = False
        _validate_dataset(self)

    @classmethod
    def from_rows(cls, units, periods, columns, source_lines=None) -> "PanelDataset":
        """A panel from each row's unit and period label and column values, rows kept in order."""
        unit_levels, unit_codes = np.unique(np.array(list(map(str, units)), dtype=object),
                                            return_inverse=True)
        period_levels, period_codes = np.unique(np.array(list(map(int, periods)), dtype=np.int64),
                                                return_inverse=True)
        return cls(unit_levels, unit_codes, period_levels, period_codes,
                   {name: _float_column(values) for name, values in columns.items()},
                   None if source_lines is None else np.array(source_lines, np.int64))

    @property
    def n_rows(self) -> int:
        return len(self.unit_codes)

    @property
    def units(self) -> tuple:
        """Each row's unit label: a new n-row tuple built from the codes on every read."""
        return tuple(self.unit_levels[self.unit_codes].tolist())

    @property
    def periods(self) -> tuple:
        """Each row's period label: a new n-row tuple built from the codes on every read."""
        return tuple(self.period_levels[self.period_codes].tolist())

    def has_column(self, name) -> bool:
        return name in self.columns

    def column(self, name) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}")
        return self.columns[name]

    def _key(self, i) -> tuple:
        """Row `i`'s unit and period labels."""
        return self.unit_levels[self.unit_codes[i]], int(self.period_levels[self.period_codes[i]])

    def row_label(self, i) -> str:
        if self.source_lines is not None:
            return f"line {self.source_lines[i]}"
        unit, period = self._key(i)
        return f"row {i} (unit {unit!r}, period {period})"

    def complete_rows(self, names) -> np.ndarray:
        """Mask of rows with no missing value in any of the named columns."""
        mask = np.ones(self.n_rows, dtype=bool)
        for name in names:
            mask &= ~np.isnan(self.column(name))
        return mask

    def with_column(self, name, values) -> "PanelDataset":
        """A copy with column `name` added or replaced."""
        return replace(self, columns={**self.columns, name: _float_column(values)})

    def subset(self, mask) -> "PanelDataset":
        """The rows where `mask` is true."""
        rows = np.flatnonzero(np.asarray(mask, dtype=bool))
        unit_used, unit_codes = np.unique(self.unit_codes[rows], return_inverse=True)
        period_used, period_codes = np.unique(self.period_codes[rows], return_inverse=True)
        return PanelDataset(
            self.unit_levels[unit_used], unit_codes, self.period_levels[period_used], period_codes,
            {name: arr[rows] for name, arr in self.columns.items()},
            None if self.source_lines is None else self.source_lines[rows],
        )


def _float_column(values) -> np.ndarray:
    """A flat float copy of `values`."""
    return np.array(values, dtype=float).reshape(-1)


def _validate_dataset(data: PanelDataset):
    # The first row whose (unit, period) key an earlier row already has.
    keys = data.unit_codes * len(data.period_levels) + data.period_codes
    _, first = np.unique(keys, return_index=True)
    if first.size < data.n_rows:
        repeated = np.ones(data.n_rows, dtype=bool)
        repeated[first] = False
        raise DuplicateKeyError(*data._key(int(np.argmax(repeated))))

    for name in (*DUMMY_COLUMNS, "quantity", "market_size"):
        if name not in data.columns:
            continue
        arr = data.columns[name]
        dummy = name in DUMMY_COLUMNS
        bad = ~np.isnan(arr) & (((arr != 0.0) & (arr != 1.0)) if dummy else (arr <= 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            reason = "dummy value {:g} is not 0 or 1" if dummy else "value {:g} must be positive"
            raise DomainViolationError(name, data.row_label(i), reason.format(arr[i]))

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


def load_panel(path) -> PanelDataset:
    """Load and validate a panel CSV keyed by its `unit` and `period` columns; rows come back
    sorted by (unit, period), and `DUMMY_COLUMNS` must hold 0/1.

    Blank records (empty, whitespace-only or with every cell empty) are skipped. A fault,
    a byte that is not UTF-8 included, is a `ParseError` on the first faulty line (the
    header is line 1) and, within it, on the unit, then the period, then the first faulty
    value column in header order. Each block of `BLOCK_RECORDS` records is converted
    column by column; when it does not convert, `_find_fault` raises its first fault, or
    finds none, and the block is converted again without its blank records.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "", "file is empty") from None
        header = [h.strip() for h in header]
        for h in header:
            if _UNDECODED.search(h):
                raise ParseError(1, h, "not valid UTF-8")
        for key in ("unit", "period"):
            if key not in header:
                raise ParseError(1, key, f"missing {key} column")
        u_pos = header.index("unit")
        t_pos = header.index("period")
        value_pos = [k for k in range(len(header)) if k not in (u_pos, t_pos)]
        if len(set(header)) != len(header):
            dupe = next(h for h in header if header.count(h) > 1)
            raise ParseError(1, dupe, "duplicated column name")

        # Per block: unit codes (in order of first appearance), periods, lines, value columns.
        index = {}
        parts = [[np.empty(0, np.intp)], [np.empty(0, np.int64)], [np.empty(0, np.int64)],
                 *([np.empty(0)] for _ in value_pos)]
        first_line = 2
        try:
            for block in _blocks(reader):
                lines = np.arange(first_line, first_line + len(block))
                converted = _convert_block(block, lines, header, u_pos, t_pos, value_pos, index)
                if converted is None:
                    _find_fault(block, first_line, header, u_pos, t_pos, value_pos)
                    kept = [k for k, record in enumerate(block) if any(c.strip() for c in record)]
                    converted = kept and _convert_block([block[k] for k in kept], lines[kept],
                                                        header, u_pos, t_pos, value_pos, index)
                for part, array in zip(parts, converted):
                    part.append(array)
                first_line += len(block)
        except csv.Error as exc:  # raised by the reader on the record at `first_line`
            raise ParseError(first_line, "", str(exc)) from None

    unit_parts, period_parts, line_parts, *value_parts = parts
    periods = np.concatenate(period_parts)
    unit_levels = np.array(sorted(index), dtype=object)
    rank = np.empty(len(index), np.intp)
    rank[[index[u] for u in unit_levels]] = np.arange(len(index))
    unit_codes = rank[np.concatenate(unit_parts)]
    order = np.lexsort((periods, unit_codes))
    unit_codes = unit_codes[order]
    period_levels, period_codes = np.unique(periods[order], return_inverse=True)
    return PanelDataset(
        unit_levels, unit_codes, period_levels, period_codes,
        {header[k]: np.concatenate(part)[order] for k, part in zip(value_pos, value_parts)},
        np.concatenate(line_parts)[order],
    )


#: A byte that is not UTF-8, which `errors="surrogateescape"` decodes to a lone surrogate.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _blocks(reader):
    """The reader's records, `BLOCK_RECORDS` at a time. A CSV error is raised after
    the records before it, as a row-by-row read would meet them."""
    while True:
        block = []
        try:
            block.extend(itertools.islice(reader, BLOCK_RECORDS))
        except csv.Error:
            yield block
            raise
        if not block:
            return
        yield block


def _convert_block(block, lines, header, u_pos, t_pos, value_pos, index):
    """A block's unit codes, periods, lines and value columns, converted column by column;
    None when a record is blank or ragged or a cell does not convert. Units are coded in
    `index` (stripped unit -> code, grown in order of first appearance)."""
    if set(map(len, block)) != {len(header)}:
        return None
    n = len(block)
    cells = list(zip(*block))
    code = {}
    for cell in set(cells[u_pos]):
        unit = cell.strip()
        if not unit:
            return None
        code[cell] = index.setdefault(unit, len(index))
    # A unit with a byte that is not UTF-8 converts; one search of the block's units finds it.
    if _UNDECODED.search("".join(code)):
        return None
    units = np.fromiter(map(code.__getitem__, cells[u_pos]), np.intp, n)
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
                x = np.fromiter((float(c) if c.strip() else math.nan for c in cells[k]), float, n)
            except ValueError:
                return None
        # NaN is allowed only for a blank cell, never for a "nan" or "inf" literal.
        if any(cells[k][i].strip() for i in np.flatnonzero(~np.isfinite(x)).tolist()):
            return None
        values.append(x)
    return (units, periods, lines, *values)


def _find_fault(block, first_line, header, u_pos, t_pos, value_pos):
    """Raise the `ParseError` of the block's first faulty record, checking its cells in
    the order `load_panel` documents; return if every record is whole or blank."""
    for line, record in enumerate(block, start=first_line):
        if not any(cell.strip() for cell in record):
            continue
        if len(record) != len(header):
            raise ParseError(line, "", f"expected {len(header)} fields, got {len(record)}")
        for k in (u_pos, t_pos, *value_pos):
            cell = record[k].strip()
            if _UNDECODED.search(cell):
                raise ParseError(line, header[k], "not valid UTF-8")
            if k == u_pos and not cell:
                raise ParseError(line, header[k], "empty unit identifier")
            if k == t_pos:
                try:
                    period = int(cell)
                except ValueError:
                    raise ParseError(line, header[k], f"period {record[k]!r} is not an integer") from None
                if not -2**63 <= period < 2**63:
                    raise ParseError(line, header[k], f"period {period} does not fit 64 bits")
            elif k != u_pos and cell:
                try:
                    x = float(cell)
                except ValueError:
                    raise ParseError(line, header[k], f"cannot parse {cell!r} as a number") from None
                if not math.isfinite(x):
                    raise ParseError(line, header[k], f"non-finite value {cell!r}")


def write_panel_csv(data: PanelDataset, path):
    """Serialize a dataset back to the CSV schema; values round-trip bitwise.

    The bytes are those `csv.writer` writes. Only unit ids can need quoting
    (numbers and periods never hold a comma, quote or line break), so
    `csv.writer` quotes each distinct unit once and the rows are joined
    directly, `BLOCK_RECORDS` at a time, column by column.
    """
    names = list(data.columns)
    units = np.array(_csv_fields(data.unit_levels.tolist()), dtype=object)[data.unit_codes]
    periods = np.array(list(map(str, data.period_levels.tolist())), dtype=object)[data.period_codes]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["unit", "period", *names])
        for start in range(0, data.n_rows, BLOCK_RECORDS):
            rows = slice(start, start + BLOCK_RECORDS)
            fields = [units[rows].tolist(), periods[rows].tolist()]
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
            unit, period = data._key(i)
            raise DomainViolationError(
                column, data.row_label(i), f"period {period}: " + problem.format(unit=unit),
            )
        if outside[codes[i]] <= 0.0 and column == "share":
            raise DomainViolationError(
                "share", data.row_label(i),
                f"period {data._key(i)[1]}: inside shares sum to {sums[codes[i]]:g}, "
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


# --- spec and parameter files -----------------------------------------------

#: Every spec-file key but "dataset", and the `ModelSpec` field it sets.
_SPEC_FIELDS = {
    "dependent": "dependent", "exogenous": "exogenous_regressors",
    "endogenous": "endogenous_regressors", "instruments": "instruments",
    "estimator": "estimator", "covariance": "covariance", "intercept": "include_intercept",
}


def read_json_object(path, kind, keys, required) -> dict:
    """The JSON object of a spec or parameter file (`kind`): keys among `keys`, `required` present."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, "", f"invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(1, "", f"{kind} must be a JSON object")
    unknown = set(raw) - set(keys)
    if unknown:
        raise UnknownKeyError(f"unknown {kind} keys: {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise MissingRequiredError(kind, key)
    return raw


def parse_spec(path) -> tuple:
    """Read a JSON model spec; return its `ModelSpec` and the resolved dataset path.

    This checks the JSON's shape; `ModelSpec` checks the estimator, the
    covariance, the column roles and the order condition. Relative dataset
    paths resolve against the spec file's directory. `check_columns` checks
    the spec against the loaded dataset.
    """
    path = Path(path)
    raw = read_json_object(path, "spec", {"dataset", *_SPEC_FIELDS},
                           ("dataset", "dependent", "estimator"))
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

