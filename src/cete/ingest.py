"""Reading of headered numeric CSVs, and loading and windowing of the UCI
Beijing PM2.5 hourly CSV.

The hourly file is comma-separated with header

    No,year,month,day,hour,pm2.5,DEWP,TEMP,PRES,cbwd,Iws,Is,Ir

one row per hour, and the literal ``NA`` marking a missing value. Any CSV
with this exact schema is read into a :class:`Pm25Table`: one column per
numeric field (NaN for ``NA``; ``cbwd`` is categorical and not stored)
and hourly timestamps. Missing values are never imputed; the window
policies below carve out contiguous stretches of complete rows instead.

Both kinds of CSV are read in as one text. ``np.loadtxt`` converts the
needed columns of all rows in C, each field as ``int()`` or ``float()``
would. The Python row loop :func:`_read_rows` is the reference and the
error locator: it reads the rows instead whenever the C pass fails, and
whenever the text holds anything the two might read differently (quotes,
spaces, blank lines, a literal ``nan`` or ``inf``, ``5_0`` and the like),
so every error names the file line of the bad row.
"""
from __future__ import annotations

import csv
import io
import math
import string
import warnings
from array import array
from dataclasses import dataclass
from datetime import MAXYEAR, MINYEAR, datetime
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .checks import _positive_int
from .core import SeriesMatrix, validate_matrix
from .errors import (
    CategoricalColumnError,
    MalformedRowError,
    NoCompleteRunError,
    NonMonotonicTimeError,
    SchemaMismatchError,
    UnknownColumnError,
    WindowHasMissingError,
)

PM25_HEADER = ("No", "year", "month", "day", "hour", "pm2.5", "DEWP", "TEMP",
               "PRES", "cbwd", "Iws", "Is", "Ir")


def _finite(token: str) -> float:
    """A numeric field: a literal ``nan`` or ``inf`` is refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def _measurement(token: str) -> float:
    """A measured field of the hourly schema: ``NA`` is missing, else finite.

    NaN stands for ``NA`` alone, so a literal ``nan`` or ``inf`` is refused
    rather than read as a gap that would move the selected window.
    """
    return math.nan if token == "NA" else _finite(token)


_KIND = {int: "an integer", _finite: "a finite number",
         _measurement: "a finite number or NA"}

# (field index, converter) of every numeric hourly column
_PM25_FIELDS = tuple(
    (i, int if name in ("No", "year", "month", "day", "hour") else _measurement)
    for i, name in enumerate(PM25_HEADER) if name != "cbwd"
)


@dataclass(frozen=True)
class Pm25Table:
    """Parsed hourly file: read-only arrays with one entry per kept row.

    ``columns`` maps each numeric CSV header name to its values (int64 for
    No, year, month, day and hour; float64 with NaN for ``NA`` otherwise);
    ``timestamps`` holds the hour of every row as ``datetime64[h]``.
    """

    columns: dict[str, np.ndarray]
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class ByDateRange:
    """Select the rows whose timestamps fall in [start, end]."""

    start: datetime
    end: datetime


@dataclass(frozen=True)
class FirstCompleteRun:
    """Select the earliest contiguous run of n complete rows."""

    n: int


def _read_rows(reader, header, fields) -> tuple[list[np.ndarray], np.ndarray]:
    """The row loop: convert the chosen fields of every non-blank data row.

    ``reader`` is a csv reader that has just returned ``header`` (line 1);
    each data row must have as many fields. ``fields`` lists (field index,
    converter) pairs; an ``int`` field is stored as int64, any other as
    float64. Returns one read-only column per field and the line number of
    every kept row.
    """
    buffers = [array("q" if convert is int else "d") for _, convert in fields]
    slots = [(buf.append, i, convert) for buf, (i, convert) in zip(buffers, fields)]
    lines = array("q")
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRowError(
                line, f"expected {len(header)} fields, got {len(row)}")
        try:
            for append, i, convert in slots:
                append(convert(row[i]))
        except (ValueError, OverflowError):
            # i and convert still name the field that failed
            raise MalformedRowError(line, f"column {header[i]}: not "
                                          f"{_KIND[convert]}: {row[i]!r}") from None
        lines.append(line)
    columns = [np.frombuffer(buf, dtype=buf.typecode) for buf in buffers]
    for col in columns:
        col.flags.writeable = False
    return columns, np.frombuffer(lines, dtype=np.int64)


# the bytes of rows the C pass reads as the row loop does: digits, signs,
# points, exponents, NA and short labels such as cbwd's; anything else
# (quotes, spaces, tabs, underscores, a lone carriage return) goes to the loop
_PLAIN = (string.digits + string.ascii_letters + "+-.,\n").encode()


def _convert_in_c(body: list[str], width: int,
                  fields) -> tuple[list[np.ndarray], np.ndarray] | None:
    """:func:`_read_rows` on the lines after the header, done by ``np.loadtxt``.

    Returns the same columns and line numbers, or None where the row loop
    must decide: for text the C parser might read otherwise, for an entry
    of ``body`` that is not one line, for a blank line or a row with other
    than ``width`` fields, and for a field the parser does not convert or
    converts only with a DeprecationWarning.
    ``NA`` after a comma becomes ``nan`` only once the text is known to
    hold no literal ``nan`` or ``inf``, so NaN marks an ``NA`` field alone.
    """
    data = "".join(body)
    if not data.isascii():
        return None
    raw = data.encode("ascii")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    lowered = raw.lower()
    if raw.translate(None, _PLAIN) or b"nan" in lowered or b"inf" in lowered:
        return None
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    if len(ends) != len(body) or (np.diff(ends, prepend=-1) == 1).any():
        return None
    # one dtype field per CSV field, so loadtxt refuses a row with another
    # count; a field no column needs is read as one byte and dropped
    kinds = {i: np.int64 if convert is int else np.float64 for i, convert in fields}
    dtype = np.dtype([(f"f{i}", kinds.get(i, "S1")) for i in range(width)])
    try:
        with warnings.catch_warnings():
            # numpy releases that only warn on a float such as 1.5 in an
            # int64 field truncate it; the row loop refuses it
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(io.BytesIO(raw.replace(b",NA", b",nan")),
                               dtype=dtype, delimiter=",", comments=None,
                               encoding="ascii", ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    columns = []
    for i, convert in fields:
        col = np.ascontiguousarray(table[f"f{i}"])
        if (convert is _finite and not np.isfinite(col).all()
                or convert is _measurement and np.isinf(col).any()):
            return None
        col.flags.writeable = False
        columns.append(col)
    return columns, np.arange(2, len(table) + 2, dtype=np.int64)


def _split_header(source) -> tuple[list[str], list[str]]:
    """The header row of a text stream or iterable of lines, and the lines
    after it, as the source gives them.

    One leading byte-order mark, which spreadsheet "CSV UTF-8" exports
    write, is not part of the header.
    """
    lines = source if isinstance(source, list) else list(source)
    first = [lines[0].removeprefix("\ufeff")] if lines else []
    reader = csv.reader(chain(first, islice(lines, 1, None)))
    header = next(reader, [])
    return header, lines[reader.line_num:]


def _convert_rows(body: list[str], header,
                  fields) -> tuple[list[np.ndarray], np.ndarray]:
    """The chosen fields of every data row: in C where that reads them as
    the row loop does, else by the row loop."""
    converted = _convert_in_c(body, len(header), fields)
    if converted is not None:
        return converted
    return _read_rows(csv.reader(body), header, fields)


def _check_rows(bad: np.ndarray, lines: np.ndarray, reason) -> None:
    """Raise MalformedRowError at the first row flagged in ``bad``."""
    if bad.any():
        i = int(bad.argmax())
        raise MalformedRowError(int(lines[i]), reason(i))


def _hourly_timestamps(cols: dict[str, np.ndarray],
                       lines: np.ndarray) -> np.ndarray:
    """Check the calendar fields of every row; return their hours as datetime64."""
    year, month, day, hour = (cols[c] for c in ("year", "month", "day", "hour"))
    _check_rows((hour < 0) | (hour > 23), lines,
                lambda i: f"hour {hour[i]} out of range")
    _check_rows((month < 1) | (month > 12), lines,
                lambda i: f"month {month[i]} out of range")
    # the same validity rule as datetime(): years 1..9999, days within the month
    clipped = np.clip(year, MINYEAR, MAXYEAR)
    months = (clipped - 1970) * 12 + (month - 1)
    first_day = months.astype("datetime64[M]").astype("datetime64[D]")
    month_days = ((months + 1).astype("datetime64[M]").astype("datetime64[D]")
                  - first_day).astype(np.int64)
    _check_rows((clipped != year) | (day < 1) | (day > month_days), lines,
                lambda i: f"invalid date {year[i]}-{month[i]:02}-{day[i]:02}")
    stamps = first_day.astype("datetime64[h]") + ((day - 1) * 24 + hour)
    gaps = np.diff(stamps) != np.timedelta64(1, "h")
    if gaps.any():
        i = int(gaps.argmax()) + 1
        raise NonMonotonicTimeError(
            f"line {lines[i]}: timestamp {stamps[i].item()} does not follow "
            f"{stamps[i - 1].item()} by one hour"
        )
    stamps.flags.writeable = False
    return stamps


def parse_pm25_csv(source) -> Pm25Table:
    """Parse a PM2.5-schema CSV from a path, a text stream or any iterable
    of text lines.

    Raises
    ------
    SchemaMismatchError
        If the header row differs from the published schema.
    MalformedRowError
        If a data row cannot be parsed (wrong field count, bad or
        non-finite number, impossible calendar date, hour or month out of
        range).
    NonMonotonicTimeError
        If consecutive timestamps do not advance by exactly one hour.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as fh:
            return parse_pm25_csv(fh)
    header, body = _split_header(source)
    header = tuple(header)
    if header != PM25_HEADER:
        raise SchemaMismatchError(
            f"header {','.join(header)!r} does not match expected "
            f"{','.join(PM25_HEADER)!r}"
        )
    values, lines = _convert_rows(body, header, _PM25_FIELDS)
    cols = {header[i]: col for (i, _), col in zip(_PM25_FIELDS, values)}
    return Pm25Table(columns=cols, timestamps=_hourly_timestamps(cols, lines))


def read_columns(source, columns: tuple[str, ...]) -> SeriesMatrix:
    """Read the named columns of a plain headered numeric CSV.

    ``source`` is a text stream or any iterable of text lines. Every data
    row must have as many fields as the header.

    Raises
    ------
    MalformedRowError
        If the input is empty, the header names a requested column more
        than once (line 1), or a row has the wrong field count or a
        requested field that is not a finite number.
    UnknownColumnError
        If a requested column is not in the header.
    EmptyInputError
        If the header is followed by no data rows (blank lines are not
        rows).
    """
    header, body = _split_header(source)
    if not header:
        raise MalformedRowError(1, "empty input")
    missing = [c for c in columns if c not in header]
    if missing:
        raise UnknownColumnError(
            f"column(s) {', '.join(missing)} not in header {header}"
        )
    repeated = [c for c in columns if header.count(c) > 1]
    if repeated:
        raise MalformedRowError(
            1, f"column(s) {', '.join(repeated)} named more than once")
    fields = [(header.index(c), _finite) for c in columns]
    values, _ = _convert_rows(body, header, fields)
    return validate_matrix(np.array(values).T, labels=columns)


def _numeric_columns(table: Pm25Table, names) -> list[np.ndarray]:
    cols = []
    for name in names:
        if name == "cbwd":
            raise CategoricalColumnError(
                "cbwd is categorical and cannot be required complete as a "
                "numeric analysis column"
            )
        if name not in table.columns:
            raise UnknownColumnError(f"unknown column {name!r}")
        cols.append(table.columns[name])
    return cols


def select_window(table: Pm25Table,
                  policy: ByDateRange | FirstCompleteRun,
                  required_columns=("pm2.5",)) -> slice:
    """Resolve a window policy against a parsed table.

    Returns the selected rows as ``slice(start, stop)``, which indexes
    ``table.columns[name]`` and ``table.timestamps`` directly.

    ``required_columns`` lists the analysis columns that must be present in
    every selected row (by default just pm2.5, the only column with gaps
    in the canonical file).

    Raises
    ------
    TypeError, ValueError
        If a FirstCompleteRun length is not an integer >= 1.
    NoCompleteRunError
        If no run long enough exists (FirstCompleteRun) or the date range
        matches no rows (ByDateRange).
    WindowHasMissingError
        If a ByDateRange window contains a missing required value.
    """
    complete = np.ones(len(table), dtype=bool)
    for col in _numeric_columns(table, required_columns):
        complete &= ~np.isnan(col)

    if isinstance(policy, FirstCompleteRun):
        n = _positive_int(policy.n, "run length")
        # each run of complete rows as a (start, end) pair
        starts, ends = np.flatnonzero(
            np.diff(complete, prepend=False, append=False)).reshape(-1, 2).T
        long_enough = starts[ends - starts >= n]
        if long_enough.size:
            start = int(long_enough[0])
            return slice(start, start + n)
        raise NoCompleteRunError(
            f"no contiguous run of {n} complete records "
            f"(columns {', '.join(required_columns)})"
        )

    if isinstance(policy, ByDateRange):
        stamps = table.timestamps
        start = int(np.searchsorted(stamps, np.datetime64(policy.start), "left"))
        stop = int(np.searchsorted(stamps, np.datetime64(policy.end), "right"))
        if stop <= start:
            raise NoCompleteRunError(
                f"no records between {policy.start} and {policy.end}"
            )
        gaps = ~complete[start:stop]
        if gaps.any():
            raise WindowHasMissingError(
                f"record at {stamps[start + int(gaps.argmax())].item()} is "
                f"missing a value in one of: {', '.join(required_columns)}"
            )
        return slice(start, stop)

    raise TypeError(f"unknown window policy {policy!r}")


def to_series_matrix(table: Pm25Table, window: slice,
                     columns) -> SeriesMatrix:
    """Extract the requested numeric columns over a window as a SeriesMatrix.

    ``window`` is a row range ``slice(start, stop)`` with
    ``0 <= start <= stop <= len(table)``, as :func:`select_window` returns.

    Raises
    ------
    ValueError
        If the window has a step other than 1 or a bound outside the table.
    UnknownColumnError / CategoricalColumnError
        For unknown or categorical (cbwd) column names.
    WindowHasMissingError
        If the window turns out to contain a missing requested value.
    """
    # indices() fills in a missing bound and clips one outside the table,
    # so it returns the window unchanged only for a plain in-table range
    if (window.indices(len(table)) != (window.start, window.stop, 1)
            or window.start > window.stop):
        raise ValueError(f"window {window} is not a row range of a table "
                         f"with {len(table)} rows")
    block = np.array([col[window] for col in _numeric_columns(table, columns)],
                     dtype=float).T
    missing = np.argwhere(np.isnan(block))
    if missing.size:
        row, col = missing[0]
        raise WindowHasMissingError(
            f"column {columns[col]} missing at "
            f"{table.timestamps[window][row].item()}"
        )
    return validate_matrix(block, labels=tuple(columns))
