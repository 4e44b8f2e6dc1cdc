"""The C column conversion reads every input as the Python row loop does.

``parse_pm25_csv`` and ``read_columns`` convert the columns with
``np.loadtxt`` and hand any input the C pass might read otherwise to the
row loop ``cete.ingest._read_rows``, the reference. Over seeded random
small hourly files, each with NA gaps and one injected fault, both must
give the reference's tables bit for bit, or its error with the same
class, message and file line.
"""
import csv
import io
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

import cete.ingest as ingest
from cete import parse_pm25_csv, read_columns, validate_matrix
from cete.errors import MalformedRowError
from conftest import synth_pm25_csv

HEADER = ",".join(ingest.PM25_HEADER)
INT_COLUMNS = (0, 1, 2, 3, 4)
MEASURED = (5, 6, 7, 8, 10, 11, 12)
FILES = 300


def random_rows(rng, n):
    """n consecutive hourly rows with NA gaps, as lists of field strings."""
    start = datetime(int(rng.integers(2009, 2016)), int(rng.integers(1, 13)),
                     int(rng.integers(1, 29)), int(rng.integers(0, 24)))
    gaps = rng.random((n, len(MEASURED))) < rng.choice([0.0, 0.05, 0.3])
    rows = []
    for i in range(n):
        t = start + timedelta(hours=i)
        measured = [str(int(rng.integers(0, 600))),
                    str(int(rng.integers(-40, 28))),
                    str(int(rng.integers(-19, 42))),
                    str(int(rng.integers(991, 1046))),
                    f"{rng.uniform(0.4, 580):.2f}",
                    str(int(rng.integers(0, 3))), str(int(rng.integers(0, 5)))]
        measured = ["NA" if gap else v for v, gap in zip(measured, gaps[i])]
        rows.append([str(i + 1), str(t.year), str(t.month), str(t.day),
                     str(t.hour), *measured[:4],
                     str(rng.choice(["NW", "NE", "SE", "cv"])), *measured[4:]])
    return rows


def set_field(rng, rows, columns, tokens):
    rows[int(rng.integers(len(rows)))][int(rng.choice(columns))] = \
        str(rng.choice(tokens))


def insert_line(rng, lines, line):
    lines.insert(int(rng.integers(1, len(lines) + 1)), line)


# fault kind -> how it changes the rows (before they are joined)
ROW_FAULTS = {
    "hour": lambda rng, rows: set_field(rng, rows, [4], ["24", "-1", "99"]),
    "month": lambda rng, rows: set_field(rng, rows, [2], ["0", "13"]),
    "day": lambda rng, rows: set_field(rng, rows, [3], ["0", "32", "31"]),
    "year": lambda rng, rows: set_field(rng, rows, [1], ["0", "10000", "-5"]),
    "feb29": lambda rng, rows: rows[int(rng.integers(len(rows)))].__setitem__(
        slice(1, 4), ["2011", "2", "29"]),
    "gap": lambda rng, rows: rows.pop(int(rng.integers(1, len(rows)))),
    "duplicate": lambda rng, rows: rows.insert(
        int(rng.integers(len(rows))), list(rows[int(rng.integers(len(rows)))])),
    "field_count": lambda rng, rows: (
        rows[int(rng.integers(len(rows)))].append("1") if rng.random() < 0.5
        else rows[int(rng.integers(len(rows)))].pop()),
    "non_numeric": lambda rng, rows: set_field(
        rng, rows, MEASURED, ["high", "", "NA?", "0x10", "1e"]),
    "non_integer": lambda rng, rows: set_field(
        rng, rows, INT_COLUMNS, ["1.5", "2.0", "1e3", "", "NA"]),
    "non_finite": lambda rng, rows: set_field(
        rng, rows, MEASURED, ["nan", "NaN", "NAN", "+nan", "inf", "-inf",
                              "Infinity", "1e999", "-1e999"]),
    "odd_token": lambda rng, rows: set_field(
        rng, rows, INT_COLUMNS + MEASURED,
        ["5_0", " 5", "5 ", '"5"', "+5", "-0", "+NA", "-NA", "NA ", "007",
         "99999999999999999999", ".5", "5.", "1E2", "٥"]),
    "spaced": lambda rng, rows: set_field(
        rng, rows, MEASURED, ["NA ", "NA\t", " NA", " 5", "5 ", "\t7"]),
    "cbwd": lambda rng, rows: set_field(
        rng, rows, [9], ["NA", "nan", "", "calm wind", "x_y", "inf"]),
}

# fault kind -> how it changes the lines (after the rows are joined)
LINE_FAULTS = {
    "blank": lambda rng, lines: insert_line(rng, lines, ""),
    "whitespace_line": lambda rng, lines: insert_line(
        rng, lines, str(rng.choice([" ", "\t", "  \t"]))),
    "comment": lambda rng, lines: insert_line(rng, lines, "# note"),
    "none": lambda rng, lines: None,
}

KINDS = sorted(ROW_FAULTS) + sorted(LINE_FAULTS)


def random_file(seed):
    """The text of one random hourly file with one fault, and the fault."""
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % len(KINDS)]
    rows = random_rows(rng, int(rng.integers(3, 60)))
    if kind in ROW_FAULTS:
        ROW_FAULTS[kind](rng, rows)
    lines = [HEADER] + [",".join(row) for row in rows]
    if kind in LINE_FAULTS:
        LINE_FAULTS[kind](rng, lines)
    ending = str(rng.choice(["\n", "\n", "\r\n"]))
    text = ending.join(lines)
    return (text + ending if rng.random() < 0.9 else text), kind


def outcome(read):
    """What a read gives: its arrays' dtypes and bytes, or its error."""
    try:
        arrays = read()
    except Exception as err:  # every error must match the reference's
        return type(err), str(err), getattr(err, "line", None)
    return [(a.dtype.str, a.shape, a.tobytes(), a.flags.writeable)
            for a in arrays]


def table_arrays(table):
    return [*table.columns.values(), table.timestamps]


def reference_table(source):
    """The hourly table as the row loop reads it from a text or a line list."""
    reader = csv.reader(io.StringIO(source) if isinstance(source, str)
                        else source)
    header = tuple(next(reader))
    values, lines = ingest._read_rows(reader, header, ingest._PM25_FIELDS)
    columns = {header[i]: col for (i, _), col in zip(ingest._PM25_FIELDS, values)}
    return [*columns.values(), ingest._hourly_timestamps(columns, lines)]


def reference_columns(source, columns):
    reader = csv.reader(io.StringIO(source) if isinstance(source, str)
                        else source)
    header = next(reader)
    fields = [(header.index(c), ingest._finite) for c in columns]
    values, _ = ingest._read_rows(reader, header, fields)
    return [validate_matrix(np.array(values).T, labels=columns).values]


@pytest.fixture(scope="module")
def files():
    return [random_file(seed) for seed in range(FILES)]


def test_every_fault_kind_is_drawn(files):
    assert {kind for _, kind in files} == set(KINDS)


def test_hourly_parse_matches_the_row_loop(files):
    for text, kind in files:
        expected = outcome(lambda: reference_table(text))
        got = outcome(lambda: table_arrays(parse_pm25_csv(io.StringIO(text))))
        assert got == expected, (kind, text)


def test_column_read_matches_the_row_loop(files):
    rng = np.random.default_rng(7)
    names = [ingest.PM25_HEADER[i] for i in INT_COLUMNS + MEASURED] + ["cbwd"]
    for text, kind in files:
        columns = tuple(rng.choice(names, size=int(rng.integers(1, 4)),
                                   replace=False))
        expected = outcome(lambda: reference_columns(text, columns))
        got = outcome(lambda: [read_columns(io.StringIO(text), columns).values])
        assert got == expected, (kind, columns, text)


def test_clean_input_is_converted_without_the_row_loop(monkeypatch):
    def row_loop(*args):
        raise AssertionError("the row loop ran on clean input")

    monkeypatch.setattr(ingest, "_read_rows", row_loop)
    table = parse_pm25_csv(io.StringIO(synth_pm25_csv(40, missing={3, 4})))
    assert np.isnan(table.columns["pm2.5"][3:5]).all()
    matrix = read_columns(io.StringIO("a,b\n1,2.5\n-3,4e1\n"), ("b", "a"))
    assert matrix.values.tolist() == [[2.5, 1.0], [40.0, -3.0]]


def test_a_float_numpy_only_warns_on_goes_to_the_row_loop(monkeypatch):
    real_loadtxt = np.loadtxt

    def warning_loadtxt(fname, dtype, **kwargs):
        # as numpy releases that warn on a float in an int field, then truncate
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning, stacklevel=2)
        as_float = [(name, np.float64 if dtype[name] == np.int64
                     else dtype[name]) for name in dtype.names]
        return real_loadtxt(fname, dtype=as_float, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    lines = synth_pm25_csv(3).splitlines(keepends=True)
    lines[2] = lines[2].replace(",2010,1,1,1,", ",2010,1,1,1.5,")
    with pytest.raises(MalformedRowError,
                       match=r"^line 3: column hour: not an integer: '1\.5'$"):
        parse_pm25_csv(lines)


def split_lines(n):
    """synth_pm25_csv(n) as a line list with line 3 cut after its fourth
    field and lines 5 and 6 joined: one line end per entry, but not one
    row per entry."""
    lines = synth_pm25_csv(n).splitlines(keepends=True)
    cut = len(",".join(lines[2].split(",")[:4]))
    return [*lines[:2], lines[2][:cut], lines[2][cut:], lines[3],
            lines[4] + lines[5], *lines[6:]]


@pytest.mark.parametrize("lines, columns", [
    (["a,b", "1,2", "3,4"], ("a", "b")),
    (["a", "1", "2"], ("a",)),
    (["a,b\n", "1,2\n3,4\n"], ("a", "b")),
    (["a,b\n", "1", "2,3\n4,5\n"], ("a", "b")),
    (split_lines(6), None),
], ids=["no-line-ends", "one-column", "two-lines-in-one",
        "line-split-across-entries", "hourly-line-split-across-entries"])
def test_each_entry_of_a_line_list_is_one_row(lines, columns):
    # joined, these entries would be other rows than the csv module reads;
    # columns None reads the lines as an hourly file
    if columns is None:
        expected = outcome(lambda: reference_table(lines))
        assert outcome(lambda: table_arrays(parse_pm25_csv(lines))) == expected
    else:
        expected = outcome(lambda: reference_columns(lines, columns))
        assert outcome(lambda: [read_columns(lines, columns).values]) == expected
