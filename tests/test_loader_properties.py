"""`load_panel` and `write_panel_csv` as properties over random panel files.

Unit ids may hold commas, quotes, line breaks and non-ASCII characters, cells
may be missing, and blank, whitespace-only or all-empty records may sit between
the rows. A loaded panel is sorted by (unit, period), so the order of the rows
in the file must not show in it, nor in the estimates made from it. numpy's block
reader and the csv path it falls back to must load the same panel from mutated files,
and `invert`'s copy of a mutated file must reload to the panel `write_panel_csv` writes.
"""

import csv
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logitdemand import dataio
from logitdemand.cli import main
from logitdemand.dataio import (DEPENDENT_COLUMN, DUMMY_COLUMNS, PanelDataset, compute_dependent,
                                load_panel, write_panel_csv)
from logitdemand.errors import DomainViolationError
from logitdemand.estimators import ModelSpec, estimate

UNIT_IDS = st.one_of(
    st.sampled_from(["a", "a,b", 'say "hi"', "ñandú", "東京", "two\nlines", "z"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
            min_size=1, max_size=5),
).filter(lambda s: s == s.strip() and s != "")
COLUMN_NAMES = ["x1", "Price", 'cost, "net"', "größe"]
VALUES = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
BLANK_RECORDS = ["", "   ", "\t", None]  # None: every cell empty, at the header's width


@st.composite
def panel_rows(draw):
    """Distinct (unit, period) rows with values, None where a cell is missing."""
    units = draw(st.lists(UNIT_IDS, min_size=1, max_size=5, unique=True))
    periods = draw(st.lists(st.integers(-50, 3000), min_size=1, max_size=4, unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(units), st.sampled_from(periods)),
                         min_size=1, max_size=12, unique=True))
    names = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=3, unique=True))
    rows = [(unit, period, [draw(VALUES) for _ in names]) for unit, period in keys]
    return names, rows


def _csv_text(names, rows, order, blanks, key_at=0):
    """The rows in `order` as CSV text, `blanks[k]` (or nothing) before the k-th, and the unit
    and period columns before the value column `key_at`.

    Returns the text and each row's line as `load_panel` counts lines: its
    record number plus one, so a quoted line break does not count.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*names[:key_at], "unit", "period", *names[key_at:]])
    line, lines = 2, {}
    for k, i in enumerate(order):
        blank = blanks[k] if k < len(blanks) else False
        if blank is not False:
            buf.write(("," * (len(names) + 1) if blank is None else blank) + "\r\n")
            line += 1
        unit, period, values = rows[i]
        cells = ["" if v is None else repr(v) for v in values]
        writer.writerow([*cells[:key_at], unit, period, *cells[key_at:]])
        lines[(unit, period)] = line
        line += 1
    return buf.getvalue(), lines


def _load(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return load_panel(path)


def _bits(arr):
    return np.asarray(arr, dtype=float).tobytes()


def _assert_sorted_rows(data, names, rows):
    """`data` holds exactly `rows`, sorted by (unit, period), bit for bit."""
    expected = sorted(rows, key=lambda r: (r[0], r[1]))
    assert data.units == tuple(r[0] for r in expected)
    assert data.periods == tuple(r[1] for r in expected)
    assert list(data.columns) == names
    for j, name in enumerate(names):
        values = [math.nan if r[2][j] is None else r[2][j] for r in expected]
        assert _bits(data.column(name)) == _bits(values)


@settings(max_examples=60)
@given(panel_rows(), st.randoms(use_true_random=False),
       st.lists(st.sampled_from([False, *BLANK_RECORDS]), max_size=12))
def test_row_order_and_blank_records_do_not_change_the_panel(tmp_path_factory, panel, rnd, blanks):
    tmp_path = tmp_path_factory.mktemp("perm")
    names, rows = panel
    order = list(range(len(rows)))
    plain_text, plain_lines = _csv_text(names, rows, order, [])
    rnd.shuffle(order)
    shuffled_text, shuffled_lines = _csv_text(names, rows, order, blanks)

    plain = _load(tmp_path, plain_text, "plain.csv")
    shuffled = _load(tmp_path, shuffled_text, "shuffled.csv")
    _assert_sorted_rows(plain, names, rows)
    assert shuffled.units == plain.units and shuffled.periods == plain.periods
    for name in names:
        assert _bits(shuffled.column(name)) == _bits(plain.column(name))
    for data, lines in ((plain, plain_lines), (shuffled, shuffled_lines)):
        keys = list(zip(data.units, data.periods))
        assert [int(v) for v in data.source_lines] == [lines[key] for key in keys]


@settings(max_examples=60)
@given(panel_rows())
def test_write_then_load_round_trips_bitwise(tmp_path_factory, panel):
    tmp_path = tmp_path_factory.mktemp("trip")
    names, rows = panel
    data = PanelDataset.from_rows(
        units=tuple(r[0] for r in rows),
        periods=tuple(r[1] for r in rows),
        columns={name: [math.nan if r[2][j] is None else r[2][j] for r in rows]
                 for j, name in enumerate(names)},
    )
    path = tmp_path / "panel.csv"
    write_panel_csv(data, path)
    assert path.read_bytes() == _csv_writer_bytes(data)
    _assert_sorted_rows(load_panel(path), names, rows)


def _csv_writer_bytes(data):
    """The reference for `write_panel_csv`: `csv.writer`, one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["unit", "period", *data.columns])
    values = [col.tolist() for col in data.columns.values()]
    units, periods = data.units, data.periods
    for i in range(data.n_rows):
        writer.writerow([units[i], periods[i],
                         *("" if math.isnan(col[i]) else repr(col[i]) for col in values)])
    return buf.getvalue().encode("utf-8")


def _public(data):
    """Every public attribute of a panel, as plain values."""
    return {
        "units": data.units, "periods": data.periods, "n_rows": data.n_rows,
        **{name: getattr(data, name).tolist()
           for name in ("unit_levels", "unit_codes", "period_levels", "period_codes")},
        "row_labels": [data.row_label(i) for i in range(data.n_rows)],
        "columns": {name: _bits(col) for name, col in data.columns.items()},
        "source_lines": None if data.source_lines is None else data.source_lines.tolist(),
    }


def _columns(names, rows):
    return {name: [math.nan if r[2][j] is None else r[2][j] for r in rows]
            for j, name in enumerate(names)}


@settings(max_examples=60)
@given(panel_rows(), st.randoms(use_true_random=False))
def test_label_constructor_and_loader_agree(tmp_path_factory, panel, rnd):
    """A panel built from per-row labels equals the panel loaded from a shuffled file
    of the same rows, and stays equal to it after `subset` and `with_column`."""
    tmp_path = tmp_path_factory.mktemp("agree")
    names, rows = panel
    order = list(range(len(rows)))
    rnd.shuffle(order)
    text, lines = _csv_text(names, rows, order, [])
    loaded = _load(tmp_path, text)
    expected = sorted(rows, key=lambda r: (r[0], r[1]))
    units, periods = [r[0] for r in expected], [r[1] for r in expected]
    built = PanelDataset.from_rows(units, periods, _columns(names, expected),
                                   source_lines=[lines[key] for key in zip(units, periods)])
    assert _public(built) == _public(loaded)
    mask = [rnd.random() < 0.6 for _ in rows]
    assert _public(built.subset(mask)) == _public(loaded.subset(mask))
    values = [rnd.uniform(-1.0, 1.0) for _ in rows]
    for name in ("new", names[0]):
        assert _public(built.with_column(name, values)) == _public(loaded.with_column(name, values))

    # Rows in file order: the same levels, each row coded to its own labels.
    shuffled = [rows[i] for i in order]
    unsorted = PanelDataset.from_rows([r[0] for r in shuffled], [r[1] for r in shuffled],
                                      _columns(names, shuffled))
    assert unsorted.units == tuple(r[0] for r in shuffled)
    assert unsorted.periods == tuple(r[1] for r in shuffled)
    assert unsorted.unit_levels.tolist() == loaded.unit_levels.tolist()
    assert unsorted.period_levels.tolist() == loaded.period_levels.tolist()
    assert unsorted.unit_levels[unsorted.unit_codes].tolist() == list(unsorted.units)
    assert unsorted.period_levels[unsorted.period_codes].tolist() == list(unsorted.periods)
    assert [unsorted.row_label(i) for i in range(len(rows))] == [
        f"row {i} (unit {r[0]!r}, period {r[1]})" for i, r in enumerate(shuffled)]


# --- numpy's reader against csv.reader ------------------------------------------------------

#: Cells that numpy's reader and Python's `int` and `float` may read differently, or not at all,
#: and cells `csv.reader` refuses (a NUL before Python 3.11, a field past its size limit);
#: "\udcff" is written as the byte 0xff, which is not UTF-8.
CELL_MUTATIONS = ["", " ", "nan", "inf", "-Infinity", "1e308", "-1e308", "1e-320", "1e400", "1_0",
                  "0x10", "１", "٣", "2_001", "2014.0", "1e3", "9223372036854775808", " +7 ",
                  "\udcff", "\x00", '"', '"q"', "a b", "\x0c3\x1c", "0." + "1" * 131_071,
                  '"a,b"', '""', '"1.5"', "\t"]
RECORD_MUTATIONS = ["short", "long", "repeat", "blank"]


@st.composite
def mutated_files(draw, panels=panel_rows()):
    """The bytes of a panel file from `panels`, its unit and period columns among the others,
    with up to three cells or records mutated from the loader alphabet above, `\\n`, `\\r` or
    `\\r\\n` line ends, a final line end or none, and a byte-order mark or none."""
    names, rows = draw(panels)
    blanks = draw(st.lists(st.sampled_from([False, *BLANK_RECORDS]), max_size=12))
    if draw(st.booleans()):  # plain units, no blank cell and no blank record: more clean blocks
        plain = {unit: f"u{k}" for k, unit in enumerate(dict.fromkeys(r[0] for r in rows))}
        rows = [(plain[unit], period, [0.5 if v is None else v for v in values])
                for unit, period, values in rows]
        blanks = []
    order = draw(st.permutations(range(len(rows))))
    key_at = draw(st.integers(0, len(names)))
    # Split at csv.writer's line end; a unit holding "\r\n" is split too, which is one more mutation.
    records = _csv_text(names, rows, order, blanks, key_at)[0].split("\r\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(records) - 1))
        kind = draw(st.sampled_from(["cell", *RECORD_MUTATIONS]))
        if kind == "cell":
            cells = records[k].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELL_MUTATIONS))
            records[k] = ",".join(cells)
        elif kind == "short":
            records[k] = records[k].rpartition(",")[0]
        elif kind == "long":
            records[k] += ",0.5"
        else:
            records.insert(k, records[k] if kind == "repeat" else draw(st.sampled_from(["", " ", ",,"])))
    eol = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    text = eol.join(records) + draw(st.sampled_from([eol, ""]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8", "surrogateescape")


def _outcome(path):
    """The loaded panel, bit for bit and with every array's dtype, or the exception's class and
    text; loading warns of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = load_panel(path)
        except Exception as exc:
            data = exc
    assert caught == []
    if isinstance(data, Exception):
        return type(data).__name__, str(data)
    arrays = (data.unit_codes, data.period_levels, data.period_codes, data.source_lines,
              *data.columns.values())
    return _public(data), [arr.dtype.str for arr in arrays]


@settings(max_examples=400)
@given(mutated_files(), st.sampled_from([1, 3, 4096]))
def test_numpy_reader_and_csv_reader_load_the_same_panel(tmp_path_factory, content, block_records):
    """`load_panel` as it is, and with numpy's reader refusing every block so that `csv.reader`
    reads them all, give the same panel, source lines and dtypes included, or the same error."""
    path = tmp_path_factory.mktemp("readers") / "panel.csv"
    path.write_bytes(content)
    with mock.patch.object(dataio, "BLOCK_RECORDS", block_records):
        fast = _outcome(path)
        with mock.patch.object(dataio, "_convert_lines", lambda *args: None):
            assert _outcome(path) == fast


@st.composite
def share_panel_rows(draw):
    """`panel_rows` with a share column `compute_dependent` inverts (at most five units, each
    under 0.19 of a period's market) and, in some panels, a `log_share_diff` column, each put
    among the other columns at random."""
    names, rows = draw(panel_rows())
    for name, values in (("share", st.floats(1e-3, 0.19)), (DEPENDENT_COLUMN, VALUES)):
        if name == DEPENDENT_COLUMN and draw(st.booleans()):
            continue
        at = draw(st.integers(0, len(names)))
        names = [*names[:at], name, *names[at:]]
        rows = [(unit, period, [*cells[:at], draw(values), *cells[at:]])
                for unit, period, cells in rows]
    return names, rows


def _invert(path, output):
    """`invert`'s exit code on `path`, its report and error line dropped."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(["invert", "--data", str(path), "--output", str(output)])


@settings(max_examples=200, deadline=None)
@given(mutated_files(share_panel_rows()), st.sampled_from([1, 3, 4096]))
def test_invert_writes_what_the_panel_writer_would(tmp_path_factory, content, block_records):
    """Wherever `invert` exits 0 on a mutated file, its output reloads to the panel that
    `write_panel_csv` writes of the inverted panel, bit for bit and with the same levels, and
    `invert` on its own output writes the same bytes; where it fails, it writes nothing."""
    folder = tmp_path_factory.mktemp("invert")
    path, out, again = folder / "panel.csv", folder / "out.csv", folder / "again.csv"
    path.write_bytes(content)
    with mock.patch.object(dataio, "BLOCK_RECORDS", block_records):
        if _invert(path, out):
            assert [p.name for p in folder.iterdir()] == ["panel.csv"]
            return
        write_panel_csv(compute_dependent(load_panel(path)), folder / "reference.csv")
        panels = [_public(load_panel(folder / name)) for name in ("out.csv", "reference.csv")]
        for panel in panels:
            del panel["row_labels"], panel["source_lines"]
        assert panels[0] == panels[1]
        assert _invert(out, again) == 0
    assert again.read_bytes() == out.read_bytes()


#: Cells for the fill: blank ones, unquoted and quoted, and others with quotes, commas or spaces.
FILL_CELLS = st.one_of(
    st.sampled_from(["", " ", "\t", " \x0b\x0c ", "\x1c", '""', '" "', '"\t "', '"a,b"', '","',
                     '"say ""hi"""', '""""', "nan", "1.5"]),
    st.text(st.sampled_from(" \tab1.,"), max_size=3),
)
#: Cells whose quotes `csv.reader` does not read as opening and closing a cell, or that quote a
#: line break: only these may make the fill decline.
MISLEADING_CELLS = ['"two\nlines"', '" \r\n"', '"a"b', 'a"b', ' "a"', '"a" ', '"']


@st.composite
def fill_blocks(draw):
    """Records of `FILL_CELLS` with up to two `MISLEADING_CELLS` among them, and their lines as
    the file splits them, with `\\n`, `\\r` or `\\r\\n` line ends and a last one or none."""
    records = draw(st.lists(st.lists(FILL_CELLS, min_size=1, max_size=4), min_size=1, max_size=6))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cells = records[draw(st.integers(0, len(records) - 1))]
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(MISLEADING_CELLS)))
    eols = st.sampled_from(["\n", "\r", "\r\n"])
    text = "".join(",".join(cells) + draw(eols) for cells in records)
    text = text if draw(st.booleans()) else text.rstrip("\r\n")
    return records, io.StringIO(text, newline="").readlines()


@settings(max_examples=300)
@example(([["", 'a"b', '"']], [',a"b,"\n']))  # parity would fill the first cell, not the last
@given(fill_blocks())
def test_the_fill_writes_nan_into_exactly_the_blank_cells(records_and_block):
    """`csv.reader` reads the filled lines as it reads the block's, but for "nan" in every
    cell that `str.strip` leaves empty; or, only for a block with a misleading cell, the fill
    declines and returns the block with 0."""
    records, block = records_and_block
    assume(block)
    filled, count = dataio._fill_blank_cells(block)
    original = list(csv.reader(block))
    blank = sum(not cell.strip() for record in original for cell in record)
    if blank and not count:
        assert filled == block
        assert any(cell in MISLEADING_CELLS for cells in records for cell in cells)
        return
    assert len(filled) == len(block) and count == blank
    assert list(csv.reader(filled)) == [["nan" if not cell.strip() else cell for cell in record]
                                        for record in original]


@pytest.mark.parametrize("record, x, record_reader", [
    ("u4,2004,4.25", 4.25, False),
    ('"u4",2004,"4.25"', 4.25, False),
    ("u4,2004,", math.nan, False),
    ("u4,2004, \t", math.nan, False),
    ('u4,2004,""', math.nan, False),
    ("u4banana,2004,", math.nan, False),
    ("u4,2004,1_0", 10.0, True),
    ("\nu4,2004,4.25", 4.25, True),
    ("u4\0,2004,4.25", 4.25, True),
    ('"u4\nx",2004,4.25', 4.25, True),
], ids=["clean", "quoted", "blank_cell", "whitespace_cell", "quoted_blank_cell",
        "blank_cell_and_nan_in_a_unit", "underscore",
        "blank_record", "nul", "unit_over_two_lines"])
def test_only_blocks_numpy_cannot_read_reach_the_record_reader(tmp_path, record, x, record_reader):
    """Clean, quoted and blank-cell blocks, a unit holding "nan" among them, are read by numpy
    alone; a cell only Python reads, a blank record, a NUL and a unit quoted over a line break
    send their block to `_read_records`, and numpy never parses a block with a line of an odd
    number of quotes."""
    lines = ["unit,period,x", *(f"u{i},{2000 + i},{i}.25" for i in range(10))]
    lines[5] = record
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with mock.patch.object(dataio, "BLOCK_RECORDS", 3), \
            mock.patch.object(dataio, "_read_records", wraps=dataio._read_records) as reader, \
            mock.patch.object(dataio, "_read_table", wraps=dataio._read_table) as table:
        column = load_panel(path).column("x")
    expected = [i + 0.25 for i in range(10)]
    expected[4] = x
    assert _bits(column) == _bits(expected)
    assert reader.call_count == record_reader
    assert not any(line.count('"') % 2 for call in table.call_args_list for line in call.args[0])


@pytest.mark.parametrize("name", DUMMY_COLUMNS)
def test_a_dummy_is_checked_by_its_name_however_the_panel_is_built(tmp_path, name):
    path = tmp_path / "panel.csv"
    path.write_text(f"unit,period,{name}\na,2001,0\nb,2001,2\n", encoding="utf-8")
    with pytest.raises(DomainViolationError, match="dummy value 2 is not 0 or 1"):
        load_panel(path)
    with pytest.raises(DomainViolationError, match="dummy value 2 is not 0 or 1"):
        PanelDataset.from_rows(("a", "b"), (2001, 2001), {name: [0.0, 2.0]})
    data = PanelDataset.from_rows(("a", "b"), (2001, 2001), {name: [0.0, 1.0]})
    with pytest.raises(DomainViolationError, match="dummy value 2 is not 0 or 1"):
        data.with_column(name, [0, 2])


# --- estimates -------------------------------------------------------------

SPECS = [
    ModelSpec(dependent="y", exogenous_regressors=("x1",), endogenous_regressors=("price",),
              estimator="ols", covariance=covariance)
    for covariance in ("classical", "robust_hc0")
] + [
    ModelSpec(dependent="y", exogenous_regressors=("x1",), endogenous_regressors=("price",),
              instruments=("cost1", "cost2"), estimator="tsls", covariance=covariance)
    for covariance in ("classical", "robust_hc0")
]


@st.composite
def regression_panels(draw):
    """A panel with y, x1, price and two cost shifters; some cells missing."""
    n_units = draw(st.integers(4, 8))
    n_periods = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.repeat(np.arange(n_units), n_periods)
    t = np.tile(np.arange(n_periods), n_units)
    keep = rng.random(u.size) >= draw(st.sampled_from([0.0, 0.2]))
    u, t = u[keep], t[keep]
    n = u.size
    cost = rng.normal(size=(n, 2))
    x1 = rng.normal(size=n)
    price = cost.sum(axis=1) + rng.normal(size=n)
    y = 1.0 + 0.5 * x1 - price + rng.normal(size=n)
    columns = {"y": y, "x1": x1, "price": price, "cost1": cost[:, 0], "cost2": cost[:, 1]}
    missing = rng.random((n, len(columns))) < draw(st.sampled_from([0.0, 0.05]))
    for j, name in enumerate(columns):
        columns[name] = np.where(missing[:, j], np.nan, columns[name])
    assume(np.sum(~missing.any(axis=1)) >= 10)
    names = list(columns)
    rows = [(f"u{u[i]:02d}", 2001 + int(t[i]),
             [None if missing[i, j] else float(columns[c][i]) for j, c in enumerate(names)])
            for i in range(n)]
    return names, rows


def _fits(data):
    return [estimate(spec, data) for spec in SPECS]


@settings(max_examples=40)
@given(regression_panels(), st.randoms(use_true_random=False))
def test_ols_and_tsls_ignore_the_row_order_of_the_file(tmp_path_factory, panel, rnd):
    """Loading sorts the rows, so estimates from a shuffled file are identical, bit for bit."""
    tmp_path = tmp_path_factory.mktemp("est")
    names, rows = panel
    order = list(range(len(rows)))
    plain = _load(tmp_path, _csv_text(names, rows, order, [])[0], "plain.csv")
    rnd.shuffle(order)
    shuffled = _load(tmp_path, _csv_text(names, rows, order, [])[0], "shuffled.csv")
    for a, b in zip(_fits(plain), _fits(shuffled)):
        assert _bits(a.coefficients) == _bits(b.coefficients)
        assert _bits(a.standard_errors) == _bits(b.standard_errors)


def _close(a, b, rtol):
    b = np.asarray(b, float)
    return bool(np.allclose(a, b, rtol=0.0, atol=rtol * np.max(np.abs(b))))


@settings(max_examples=40)
@given(regression_panels(), st.randoms(use_true_random=False))
def test_ols_and_tsls_ignore_the_row_order_of_the_dataset(panel, rnd):
    """The estimators themselves, on a panel built in two row orders: equal up to
    the rounding of a reordered sum, 1e-10 of the largest entry."""
    names, rows = panel
    order = list(range(len(rows)))
    rnd.shuffle(order)

    def dataset(order):
        return PanelDataset.from_rows(
            units=tuple(rows[i][0] for i in order),
            periods=tuple(rows[i][1] for i in order),
            columns={name: [math.nan if rows[i][2][j] is None else rows[i][2][j] for i in order]
                     for j, name in enumerate(names)},
        )

    for a, b in zip(_fits(dataset(range(len(rows)))), _fits(dataset(order))):
        assert _close(b.coefficients, a.coefficients, 1e-10)
        assert _close(b.standard_errors, a.standard_errors, 1e-10)
        assert b.df_residual == a.df_residual


# --- kept rows are coded as np.unique codes them -------------------------------------------------


@st.composite
def coded_panels(draw):
    """A panel on a grid of unit and period levels, some of them unused, in random row order
    with codes of a random integer type, and a row mask: none, all or a random share."""
    n_units, n_periods = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.2, 0.5, 1.0]))
    cells = rng.permutation(np.flatnonzero(rng.random(n_units * n_periods) < share))
    dtype = draw(st.sampled_from([np.intp, np.int32, np.uint16]))
    data = PanelDataset(np.array([f"u{i}" for i in range(n_units)], dtype=object),
                        (cells // n_periods).astype(dtype), 2001 + np.arange(n_periods),
                        (cells % n_periods).astype(dtype), {"x": rng.normal(size=cells.size)})
    kind = draw(st.sampled_from(["none", "all", "random"]))
    mask = rng.random(cells.size) < (0.0 if kind == "none" else 1.0 if kind == "all" else 0.5)
    return data, mask


@settings(max_examples=200)
@given(coded_panels())
def test_kept_rows_are_coded_as_np_unique_codes_them(panel):
    """`recode`, and `subset` through it, count the kept rows' codes into exactly the levels
    and codes that np.unique(codes[rows], return_inverse=True) sorts them into, values and
    dtypes alike, with unused levels and empty or whole subsets included."""
    data, mask = panel
    rows = np.flatnonzero(mask)
    sub = data.subset(mask)
    recoded = data.recode(rows)
    for k, factor in enumerate(("unit", "period")):
        levels, codes = getattr(data, f"{factor}_levels"), getattr(data, f"{factor}_codes")
        used, inverse = np.unique(codes[rows], return_inverse=True)
        for got_levels, got_codes in (recoded[2 * k:2 * k + 2],
                                      (getattr(sub, f"{factor}_levels"), getattr(sub, f"{factor}_codes"))):
            assert got_levels.dtype == levels.dtype and np.array_equal(got_levels, levels[used])
            assert got_codes.dtype == inverse.dtype and np.array_equal(got_codes, inverse)
    assert np.array_equal(sub.column("x"), data.column("x")[rows])
