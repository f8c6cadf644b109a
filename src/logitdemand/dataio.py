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
import os
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


#: Lines read per block by `load_panel` (records, when a block falls back to `csv.reader`)
#: and by `write_inverted_csv`, and records written per block by `write_panel_csv`.
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

    def recode(self, rows) -> tuple:
        """(unit levels, unit codes, period levels, period codes) of `rows`: the levels they use and
        their codes renumbered over them, as np.unique(codes[rows], return_inverse=True) gives them,
        counted, not sorted: a level of positive count is used, coded by the used ones below it."""
        coded = ()
        for levels, codes in ((self.unit_levels, self.unit_codes),
                              (self.period_levels, self.period_codes)):
            kept = codes[rows]
            used = np.bincount(kept, minlength=levels.size) > 0
            coded += (levels[used], (np.cumsum(used) - 1)[kept])
        return coded

    def subset(self, mask) -> "PanelDataset":
        """The rows where `mask` is true."""
        rows = np.flatnonzero(np.asarray(mask, dtype=bool))
        return PanelDataset(
            *self.recode(rows), {name: arr[rows] for name, arr in self.columns.items()},
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
        sizes = sorted(set(n[rows][known[rows]].tolist()))
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
    sorted by (unit, period), and `DUMMY_COLUMNS` must hold 0/1. A leading UTF-8 byte-order
    mark is skipped. Cells are quoted as `csv.reader` quotes them; an empty or whitespace-only
    cell is missing.

    When `<path>.panel.npz`, the sidecar `write_inverted_csv` writes, records the sha256 of the
    file's bytes as they are and the loader's (`_loader`), the panel is read from it
    (`_read_sidecar`): it holds the panel parsing gives. Any other sidecar is ignored and the
    file parsed, so a change to this module's parse makes every sidecar written before it stale.

    Blank records (empty, whitespace-only or with every cell empty) are skipped. A fault,
    a byte that is not UTF-8 included, is a `ParseError` on the first faulty line (the
    header is line 1) and, within it, on the unit, then the period, then the first faulty
    value column in header order. The file is read `BLOCK_RECORDS` lines at a time. numpy's
    reader converts each block it reads as `csv.reader` would, blank cells filled with `nan`
    (`_convert_lines`); `csv.reader` reads a block it refuses from its first line,
    `BLOCK_RECORDS` records, converted column by column (`_read_records`). Not safe to call from
    several threads at once: each block sets the process-wide warning filters.
    """
    cached = _read_sidecar(path)
    if cached is not None:
        return cached
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            header = next(csv.reader(fh))
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
        # One field per column for numpy's reader: the unit as text, the period as int64.
        fields = np.dtype([(str(k), "O" if k == u_pos else "i8" if k == t_pos else "f8")
                           for k in range(len(header))])

        # Per block: unit codes (in order of first appearance), periods, lines, value columns.
        index = {}
        parts = [[np.empty(0, np.intp)], [np.empty(0, np.int64)], [np.empty(0, np.int64)],
                 *([np.empty(0)] for _ in value_pos)]
        first_line = 2
        while block := list(itertools.islice(fh, BLOCK_RECORDS)):
            lines = np.arange(first_line, first_line + len(block))
            converted = _convert_lines(block, lines, fields, u_pos, t_pos, value_pos, index)
            if converted is None:
                # BLOCK_RECORDS records from the block's first line. They span all its lines, and
                # more when a quoted record runs past them: the next block starts on a record.
                records = itertools.islice(csv.reader(itertools.chain(block, fh)), BLOCK_RECORDS)
                converted = _read_records(records, first_line, header, u_pos, t_pos, value_pos,
                                          index)
            for part, array in zip(parts, converted):
                part.append(array)
            first_line += len(block)

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


def _convert_lines(block, lines, fields, u_pos, t_pos, value_pos, index):
    """What `_read_records` makes of a block's records, converted by `np.loadtxt`; None unless
    each line is one whole record and the block converts. A block with a line of an odd number
    of quotes, such as a unit quoted over a line break, is refused before numpy parses it. A
    block numpy refuses is read again with its blank cells filled (`_fill_blank_cells`).

    numpy gets no NUL (`csv.reader` refuses it before Python 3.11) or line past
    `csv.field_size_limit()`, and splits and unquotes cells as `csv.reader` does. It skips a line
    that is only a line end, as `_read_records` skips that blank record, and the other lines keep
    their numbers; the row count shows any other line it joins or skips. A last line cut inside
    quotes, which numpy ends at the cut, is refused. Where numpy and `_read_records` both accept
    a cell they give the same number: both strip what `str.strip` strips, and numpy's float
    parser is Python's. A cell only Python reads (`1_0`, `１`) and a non-finite value are
    refused, and a NaN is kept only as a fill: one per fill. A filled unit reads "nan", which
    would let a `nan` value go uncounted, so a filled block with a unit "nan" is refused."""
    text = "".join(block)
    if ("\0" in text or max(map(len, block)) > csv.field_size_limit()
            or '"' in text and any(line.count('"') % 2 for line in block)):
        return None
    filled, table = 0, _read_table(block, fields)
    if table is None:
        block, filled = _fill_blank_cells(block)
        if not filled:
            return None
        table = _read_table(block, fields)
    if table is not None and len(table) != len(lines):
        lines = lines[[line not in ("\n", "\r", "\r\n") for line in block]]
    if (table is None or len(table) != len(lines)
            or '"' in block[-1] and next(csv.reader(block[-1:]))[-1].endswith(("\n", "\r"))):
        return None
    values = [table[str(k)].copy() for k in value_pos]
    if sum(np.isnan(x).sum() for x in values) != filled or any(np.isinf(x).any() for x in values):
        return None
    cells = table[str(u_pos)].tolist()
    units = None if filled and "nan" in cells else _code_units(cells, index)
    return None if units is None else (units, table[str(t_pos)].copy(), lines, *values)


def _read_table(block, fields):
    """numpy's reading of a block's lines into `fields`; None when it refuses them or warns:
    of a block without rows, or, in numpy releases that only deprecate parsing an integer
    through a float, of a period such as "2014.0", which they read as 2014 and `int` refuses."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(block, fields, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except (ValueError, Warning):
        return None


#: `str.isspace` of each ASCII byte; bytes, as a numpy array made at import slowed `mc_acceptance`.
_SPACE = bytes(chr(i).isspace() for i in range(128))


def _fill_blank_cells(block) -> tuple:
    """The block's lines with `nan` written over each blank cell, one of ASCII whitespace in
    a pair of quotes or none, and the number of cells filled: `csv.reader` reads the filled
    lines as it reads `block`, but for "nan" in each blank cell. The block comes back with 0
    when a quote neither opens nor closes a cell, or quotes a line break: quote parity is
    then not `csv.reader`'s quoting, or a fill would join lines. The bytes at or below ","
    are all that can quote, cut or blank a cell; one pass finds them, and the rest works on
    their positions."""
    data = b"\n" + "".join(block).encode("utf-8", "surrogateescape") + b"\n"
    c = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(c <= ord(","))
    b = c[at]
    quote = b == ord('"')
    inside = np.logical_xor.accumulate(quote)
    line_end = (b == ord("\n")) | (b == ord("\r"))
    # A quote opens a cell after a comma, a line end or a quote, and closes one before them.
    edge = (ord(","), ord("\n"), ord("\r"), ord('"'))
    if (np.any(inside & line_end) or not np.isin(c[at[quote][0::2] - 1], edge).all()
            or not np.isin(c[at[quote][1::2] + 1], edge).all()):
        return block, 0
    # The cells lie between the cuts, line ends and commas outside quotes. One is blank when
    # each byte is whitespace or one of two quotes, and an empty one lies next to a comma.
    k = np.flatnonzero(line_end | (b == ord(",")) & ~inside)
    start, stop = at[k[:-1]] + 1, at[k[1:]]
    weak, quotes = np.cumsum(np.frombuffer(_SPACE, bool)[b] & ~line_end | quote), np.cumsum(quote)
    n_quotes = quotes[k[1:]] - quotes[k[:-1]]
    comma = b[k] == ord(",")
    blank = ((weak[k[1:]] - weak[k[:-1]] == stop - start) & ((n_quotes == 0) | (n_quotes == 2))
             & ((stop > start) | comma[:-1] | comma[1:]))
    if not blank.any():
        return block, 0
    pieces, pos = [], 1
    for s, e in zip(start[blank].tolist(), stop[blank].tolist()):
        pieces += (data[pos:s], b"nan")
        pos = e
    # Split as the file splits lines: at "\n", "\r\n" and "\r".
    text = b"".join([*pieces, data[pos:-1]]).decode("utf-8", "surrogateescape")
    return list(io.StringIO(text, newline="")), len(pieces) // 2


def _code_units(cells, index):
    """Each unit cell's code in `index` (stripped unit -> code, grown in order of first
    appearance); None, leaving `index` as it was, when a unit is empty or holds a byte
    that is not UTF-8."""
    distinct = dict.fromkeys(cells)
    units = [cell.strip() for cell in distinct]
    # One search of the block's distinct units finds a byte that is not UTF-8.
    if "" in units or _UNDECODED.search("".join(distinct)):
        return None
    code = {cell: index.setdefault(unit, len(index)) for cell, unit in zip(distinct, units)}
    return np.fromiter(map(code.__getitem__, cells), np.intp, len(cells))


def _read_records(records, first_line, header, u_pos, t_pos, value_pos, index):
    """The unit codes, periods, lines and value columns of the records from `first_line` on,
    converted column by column: a blank record is skipped, and cells are stripped as `str.strip`
    strips them (`int` and `float` keep "\\x1c"), an empty one read as NaN. Records that do not
    convert are searched one by one, and the first fault raises its `ParseError`, on the unit,
    then the period, then the value columns in header order."""
    block, error = [], None
    try:
        block.extend(records)
    except csv.Error as exc:  # raised on the record after `block`
        error = ParseError(first_line + len(block), "", str(exc))
    kept = list(itertools.compress(range(len(block)), map(str.strip, map("".join, block))))
    rows = [block[k] for k in kept]
    columns, n = list(zip(*rows)) or [()] * len(header), len(rows)
    try:
        if set(map(len, rows)) - {len(header)}:
            raise ValueError
        periods = np.fromiter(map(int, map(str.strip, columns[t_pos])), np.int64, n)
        values = [np.fromiter(map(float, [c.strip() or "nan" for c in columns[k]]), float, n)
                  for k in value_pos]
        # A NaN is kept only for an empty cell, never for a "nan" or "inf" literal.
        nan_text = any(columns[k][i].strip() for k, x in zip(value_pos, values)
                       for i in np.flatnonzero(~np.isfinite(x)).tolist())
        if nan_text or (units := _code_units(columns[u_pos], index)) is None:
            raise ValueError
    except (ValueError, OverflowError):
        for line, record in enumerate(block, first_line):
            cells = list(map(str.strip, record))
            if any(cells) and len(cells) != len(header):
                raise ParseError(line, "", f"expected {len(header)} fields, got {len(cells)}")
            for k in (u_pos, t_pos, *value_pos) if any(cells) else ():
                cell, name = cells[k], header[k]
                if _UNDECODED.search(cell) or k == u_pos and not cell:
                    raise ParseError(line, name, "not valid UTF-8" if cell else "empty unit identifier")
                try:
                    x = int(cell) if k == t_pos else float(cell) if k != u_pos and cell else 0
                except ValueError:
                    raise ParseError(line, name, f"period {record[k]!r} is not an integer" if k == t_pos
                                     else f"cannot parse {cell!r} as a number") from None
                if k == t_pos and not -2**63 <= x < 2**63:
                    raise ParseError(line, name, f"period {x} does not fit 64 bits")
                if not math.isfinite(x):
                    raise ParseError(line, name, f"non-finite value {cell!r}")
    if error is not None:
        raise error
    return units, periods, first_line + np.array(kept, np.int64), *values


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


def write_inverted_csv(data: PanelDataset, source, path, loaded):
    """Write `invert`'s output: each record of `source` that `load_panel` read into `data`, in
    the file's order and with its text as read, then the row's `log_share_diff` value; then its
    sidecar `<path>.panel.npz` (`_write_sidecar`), so that `load_panel(path)` need not parse it.

    The header and each kept record end in `\\r\\n`, whatever line end they had, and the value
    is appended as `,repr(value)`, or written over the record's cell when the header already
    names a `log_share_diff` column. A byte-order mark and blank records are dropped. The file
    is read again `BLOCK_RECORDS` lines at a time (`_split_records`); the value's cell is found
    by counting commas from either end of the record, since only a unit cell can hold a comma.
    The output is written to a temporary file beside `path` and then moved onto it, so `path`
    may name `source`, and a failed copy leaves no output. `loaded` is `os.stat(source)` taken
    before the load: a record the load kept but the file no longer holds, or a file whose size,
    modification time or inode at the copy's end are not `loaded`'s, is a `ParseError`.
    """
    rows = np.argsort(data.source_lines)
    lines = data.source_lines[rows]
    values = data.column(DEPENDENT_COLUMN)[rows]
    real = os.path.realpath(path)
    temp = f"{real}.{os.getpid()}.tmp"
    try:
        with open(source, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh, \
                open(temp, "w", newline="", encoding="utf-8", errors="surrogateescape") as out:
            header = _split_records(list(itertools.islice(fh, 1)), fh)
            if not header:
                raise ParseError(1, "", f"file is empty: {_CHANGED}")
            names = [name.strip() for name in next(csv.reader(header))]
            over = names.index(DEPENDENT_COLUMN) if DEPENDENT_COLUMN in names else None
            head = "".join(header).rstrip(_EOL)
            out.write(f"{head}\r\n" if over is not None else f"{head},{DEPENDENT_COLUMN}\r\n")
            first, k = 2, 0  # the line of the block's first record, and the next kept record
            while block := list(itertools.islice(fh, BLOCK_RECORDS)):
                records = _split_records(block, fh)
                last = first + len(records)
                stop = int(np.searchsorted(lines, last))
                if stop - k < len(records):
                    records = [records[i] for i in (lines[k:stop] - first).tolist()]
                pairs = zip(records, values[k:stop].tolist())
                out.write("".join(
                    [f"{text.rstrip(_EOL)},{value!r}\r\n" for text, value in pairs] if over is None
                    else [_over_cell(text.rstrip(_EOL), repr(value), names, over)
                          for text, value in pairs]))
                first, k = last, stop
            now = os.fstat(fh.fileno())
        if k < len(lines):
            raise ParseError(int(lines[k]), "", f"no record: {_CHANGED}")
        if any(getattr(now, key) != getattr(loaded, key)
               for key in ("st_size", "st_mtime_ns", "st_ino")):
            raise ParseError(1, "", _CHANGED)
        os.replace(temp, real)
    except BaseException:
        Path(temp).unlink(missing_ok=True)
        raise
    # The output's record of row rows[i] is its (i + 1)-th, on line i + 2.
    output_lines = np.empty_like(lines)
    output_lines[rows] = np.arange(2, len(lines) + 2)
    _write_sidecar(data, output_lines, path)


#: What `str.rstrip` strips from a record to drop its line end, whichever of the three it is.
_EOL = "\r\n"
_CHANGED = "the file changed after it was loaded"


def _write_sidecar(data: PanelDataset, source_lines, path):
    """Write `<path>.panel.npz`: `data` with `source_lines`, as `load_panel(path)` parses it,
    and the sha256 of `path`'s bytes. Each array is its own entry, a value column under its
    position in the header; the unit levels, the column names, the hash and `_loader()` are one
    JSON text, as bytes, since a numpy string array drops a trailing NUL. The file is written
    beside its name and then moved onto it."""
    sidecar = f"{path}.panel.npz"
    temp = f"{sidecar}.{os.getpid()}.tmp"
    meta = {"loader": _loader(), "sha256": _sha256(path),
            "unit_levels": data.unit_levels.tolist(), "columns": list(data.columns)}
    try:
        with open(temp, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
                     unit_codes=data.unit_codes, period_levels=data.period_levels,
                     period_codes=data.period_codes, source_lines=source_lines,
                     **{f"column{k}": column for k, column in enumerate(data.columns.values())})
        os.replace(temp, sidecar)
    except BaseException:
        Path(temp).unlink(missing_ok=True)
        raise


def _read_sidecar(path):
    """The panel of `<path>.panel.npz`, built by `PanelDataset` and so checked as any panel is;
    None when there is no such file, or it is not one `_write_sidecar` wrote, with this loader,
    of `path`'s bytes as they are now, or its panel fails a check."""
    try:
        with np.load(f"{path}.panel.npz", allow_pickle=False) as npz:
            meta = json.loads(npz["meta"].tobytes())
            if meta["loader"] != _loader() or meta["sha256"] != _sha256(path):
                return None
            return PanelDataset(
                np.array(meta["unit_levels"], dtype=object), npz["unit_codes"],
                npz["period_levels"], npz["period_codes"],
                {name: npz[f"column{k}"] for k, name in enumerate(meta["columns"])},
                npz["source_lines"],
            )
    # A sidecar only saves a parse: whatever is wrong with it (the zip, an entry, the JSON, the
    # hash or the panel's checks, each with errors of its own), the file is parsed instead.
    except Exception:
        return None


def _loader() -> str:
    """What a parse depends on besides the file: the sha256 of this module's source, which
    holds the parse and the sidecar's format, and the numpy and Python versions, whose readers
    it calls."""
    import platform  # here, as `_sha256` imports hashlib

    return f"{_sha256(__file__)} numpy {np.__version__} python {platform.python_version()}"


def _sha256(path) -> str:
    """The sha256 of a file's bytes, read 1 MB at a time."""
    import hashlib  # on first use, so that importing the package costs no more

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _split_records(block, more) -> list:
    """The texts of the records that start on the block's lines, line ends kept. A line without
    a quote is one record; `csv.reader` finds the lines of a record that holds a quote, taking
    them from `more` once the block's run out."""
    if '"' not in "".join(block):
        return block
    taken = []
    reader = csv.reader(taken.append(line) or line for line in itertools.chain(block, more))
    records = []
    while len(taken) < len(block):
        start = len(taken)
        try:
            next(reader)
        except csv.Error as exc:  # a record `load_panel` read is past the field limit now
            raise ValueError(f"{exc}: {_CHANGED}") from None
        records.append("".join(taken[start:]))
    return records


def _over_cell(text, value, names, k) -> str:
    """A record of the header's `names` with its cell `k` replaced by `value`, and `\\r\\n`. Cell
    `k` is found by counting commas from the record's end when it follows the unit cell, the one
    cell that can hold a comma, else from its start."""
    after = k > names.index("unit")
    cells = text.rsplit(",", len(names) - k) if after else text.split(",", k + 1)
    if len(cells) != (len(names) - k + 1 if after else k + 2):
        raise ValueError(f"a record no longer has {len(names)} cells: {_CHANGED}")
    cells[1 if after else k] = value
    return ",".join(cells) + "\r\n"


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
    """The panel with its log-share-difference column built from quantities or a share column,
    replacing one already there.

    The inversion needs every inside share and each period's outside share positive. Periods are
    checked in sorted order and, within one, a missing value first, then a share at or below 0,
    then inside shares that leave no outside share. The first fault raises
    `DomainViolationError` naming the column, the row and the period.
    """
    column, inside = _inside_shares(data)
    # Quantities and market sizes are positive or NaN, so q / N is NaN exactly where one is missing.
    # It can still underflow to 0, or sum to 1 in a period whose quantities stay below its size.
    missing = np.isnan(inside)
    codes = data.period_codes
    sums = np.bincount(codes, weights=inside, minlength=len(data.period_levels))
    outside = 1.0 - sums
    flagged = missing | (inside <= 0.0) | (outside <= 0.0)[codes]
    if np.any(flagged):
        t = int(codes[flagged].min())
        rows = np.flatnonzero(codes == t)
        period = int(data.period_levels[t])
        if np.any(missing[rows]):
            i = int(rows[np.argmax(missing[rows])])
            problem = (f"missing quantity or market size for unit {data._key(i)[0]!r}"
                       if column == "quantity" else "missing share")
        elif np.any(inside[rows] <= 0.0):
            i = int(rows[np.argmax(inside[rows] <= 0.0)])
            problem = f"inside share {inside[i]:g} must be positive"
        else:
            i = int(rows[0])
            problem = f"inside shares sum to {sums[t]:g}, outside share must be positive"
        raise DomainViolationError(column, data.row_label(i), f"period {period}: {problem}")
    delta = demand.invert_shares(inside, outside, codes)
    return data.with_column(DEPENDENT_COLUMN, delta)


def outside_shares(data: PanelDataset) -> dict:
    """Per-period outside share 1 - sum of the inside shares that `compute_dependent` inverts.

    Call it on a panel `compute_dependent` accepted: every share is then present.
    """
    _, inside = _inside_shares(data)
    outside = 1.0 - np.bincount(data.period_codes, weights=inside,
                                minlength=len(data.period_levels))
    return dict(zip(data.period_levels.tolist(), outside.tolist()))


# --- spec and parameter files -----------------------------------------------

#: Every spec-file key but "dataset", and the `ModelSpec` field it sets.
_SPEC_FIELDS = {
    "dependent": "dependent", "exogenous": "exogenous_regressors",
    "endogenous": "endogenous_regressors", "instruments": "instruments",
    "estimator": "estimator", "covariance": "covariance", "intercept": "include_intercept",
}


def read_json_object(path, kind, keys, required) -> dict:
    """The JSON object of a spec or parameter file (`kind`): keys among `keys`, `required` present."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    undecoded = _UNDECODED.search(text)
    if undecoded:
        raise ParseError(text.count("\n", 0, undecoded.start()) + 1, "", "not valid UTF-8")
    try:
        raw = json.loads(text)
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

