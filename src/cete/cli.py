"""Command-line frontend.

Subcommands:

* ``ce``       copula entropy of selected columns of a CSV
* ``te``       transfer-entropy lag scan between two columns
* ``synth``    simulate the coupled autoregressive pair to a CSV
* ``oracle``   analytic transfer entropy / Granger ratio for that pair

Inputs are either the hourly air-quality CSV or any headered numeric
CSV. The input is read once, and it is hourly if its header, read as a
CSV row by :func:`cete.ingest.parse_pm25_csv`, is the hourly schema's (so
quoted header names count). Window selection flags apply only to hourly
input. Data goes to the output stream, diagnostics to stderr. The exit
status is 0 if the computation completed, 1 if it failed (``Error:
<stage>: <message>``) or the reader of the output stream left, and 2 for
a command line that cannot run.

The command line is read by the standard library's :mod:`argparse`,
built on each call of :func:`main`, so importing this module builds
nothing and loads no third-party module. Argparse also checks every
option it can: the ranges of integers, the lag spec, the date range and
that the two window flags exclude each other, each error naming its
option. The commands themselves check only what needs more than one
option or the input: repeated columns, fewer than two ``ce`` columns,
and window flags on input without the hourly header.

``ce``, ``te`` and ``oracle`` write CSV with 6 significant digits
(plot-grade) or JSON with full precision (regression-grade). ``synth``
writes CSV only, each value the ``repr`` of its float, so that its
output reads back as the simulation's exact values.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import contextmanager
from datetime import datetime
from typing import TYPE_CHECKING

from . import __version__
from .checks import _check_lags
from .errors import CeteError, SchemaMismatchError

if TYPE_CHECKING:
    from .core import SeriesMatrix

__all__ = ["main", "parse_lag_spec"]

_DEFAULT_RUN = 1000  # default complete-window length, in hours


class _UsageError(ValueError, argparse.ArgumentTypeError):
    """A command line that cannot run: exit status 2. Raised by a ``type=``
    function, argparse reports it with the option's name; raised by a
    command, :func:`main` reports it after the command's usage line."""


class _Failure(Exception):
    """A command that failed at a named stage: exit status 1."""


class _Parser(argparse.ArgumentParser):
    """Takes no abbreviated option, and reads a number after an option as
    that option's value."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse's own pattern would read -1e-3 and -inf as options
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


# The library names below load numpy, so the commands import them in their
# own bodies. These four stay module-level functions only because
# bench/tracer.py times the CLI's ingest and scan by replacing them here;
# like knn_entropy.cKDTree they go when the library records its own spans
# (ROADMAP item 1).
def parse_pm25_csv(source):
    from .ingest import parse_pm25_csv

    return parse_pm25_csv(source)


def select_window(table, policy, required_columns=("pm2.5",)):
    from .ingest import select_window

    return select_window(table, policy, required_columns)


def to_series_matrix(table, window, columns):
    from .ingest import to_series_matrix

    return to_series_matrix(table, window, columns)


def lag_scan(x, y, lags, order_m=1, k=3):
    from .causality import lag_scan

    return lag_scan(x, y, lags, order_m, k)


def parse_lag_spec(text: str) -> list[int]:
    """Parse a lag spec: comma-separated ints and inclusive ``a..b`` ranges.

    Examples: ``"9"``, ``"1..24"``, ``"1,2,4..6,12"``. The result must
    pass the library's lag rule: strictly increasing, every lag >= 1; a
    spec that does not raises a ValueError.
    """
    lags: list[int] = []
    for item in text.split(","):
        item = item.strip()
        try:
            if ".." in item:
                lo_s, hi_s = item.split("..", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError
                lags.extend(range(lo, hi + 1))
            else:
                lags.append(int(item))
        except ValueError:
            raise _UsageError(f"bad lag spec item {item!r}")
    try:
        return _check_lags(lags)
    except (TypeError, ValueError) as err:
        raise _UsageError(str(err))


def _parse_date_range(text: str) -> tuple[datetime, datetime]:
    """(start, end) of a --date-range value, checked before numpy loads."""
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(
            f"date range must be START:END (dates as YYYY-MM-DD or "
            f"YYYY-MM-DDTHH), got {text!r}"
        )
    stamps = []
    for part, is_end in zip(parts, (False, True)):
        try:
            if "T" in part:
                stamps.append(datetime.strptime(part, "%Y-%m-%dT%H"))
            else:
                day = datetime.strptime(part, "%Y-%m-%d")
                # a date-only END means the whole day, through hour 23
                stamps.append(day.replace(hour=23) if is_end else day)
        except ValueError:
            raise _UsageError(f"bad date {part!r} in range {text!r}")
    start, end = stamps
    if end < start:
        raise _UsageError(f"date range ends before it starts: {text!r}")
    return start, end


def _load_matrix(input_path: str, columns: tuple[str, ...],
                 bounds: tuple[datetime, datetime] | None,
                 run_length: int | None) -> SeriesMatrix:
    """Load the requested columns, resolving a window for schema'd input."""
    if len(set(columns)) < len(columns):
        raise _UsageError(f"columns must be distinct, got {', '.join(columns)}")
    from .ingest import ByDateRange, FirstCompleteRun, _lines, read_columns

    with _stage("ingest"):
        try:
            # stdin may still be strict about UTF-8, where a path is not
            lines = _lines(sys.stdin if input_path == "-" else input_path)
        except (OSError, UnicodeDecodeError) as err:
            raise _Failure(f"ingest: {err}")
        try:
            table = parse_pm25_csv(lines)
        except SchemaMismatchError:
            if bounds is not None or run_length is not None:
                raise _UsageError(
                    "window flags apply only to the hourly air-quality "
                    "schema; this input has a different header"
                )
            return read_columns(lines, columns)
        policy = (ByDateRange(*bounds) if bounds is not None
                  else FirstCompleteRun(run_length or _DEFAULT_RUN))
        window = select_window(table, policy, required_columns=columns)
        matrix = to_series_matrix(table, window, columns)
    start = table.timestamps[window.start].item()
    print(f"# window: {window.stop - window.start} records from {start}",
          file=sys.stderr)
    return matrix


@contextmanager
def _stage(name: str):
    """Report a library error raised in the block as ``name: message``, exit 1."""
    try:
        yield
    except CeteError as err:
        raise _Failure(f"{name}: {err}")


@contextmanager
def _open(path: str):
    """The output stream for ``path``, closed on exit (``-``: stdout, left open)."""
    if path == "-":
        yield sys.stdout
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise _Failure(f"output: {err}")
    with stream:
        yield stream


def _write(fmt: str, path: str, payload, header: list[str], rows) -> None:
    """The result as JSON (``payload``, full precision) or as CSV
    (``header``, then ``rows`` as they come: a float with 6 significant
    digits, anything else as ``str``, so ``synth``'s ``repr`` strings keep
    full precision), with exactly one trailing newline."""
    with _open(path) as stream:
        if fmt == "json":
            json.dump(payload, stream, indent=2)
            stream.write("\n")
            return
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
            )


def ce(input_path, columns, date_range, run_length, k, fmt, output_path):
    """Copula entropy of the selected columns."""
    names = tuple(c.strip() for c in columns.split(",") if c.strip())
    if len(names) < 2:
        raise _UsageError("need at least two columns")
    matrix = _load_matrix(input_path, names, date_range, run_length)
    from .copula import copula_entropy

    with _stage("estimation"):
        value = copula_entropy(matrix, k)
    print(f"# columns={','.join(names)} n={matrix.T} k={k}", file=sys.stderr)
    _write(fmt, output_path,
           {"ce_nats": value, "n": matrix.T, "k": k, "columns": list(names)},
           ["ce_nats", "n", "k"], [[value, matrix.T, k]])


# TeEstimate fields, in output order after "lag"
_TE_COLUMNS = ("te_nats", "ce_joint", "ce_self", "ce_assoc", "ce_past",
               "n_effective")


def te(input_path, cause, effect, lags, order_m, date_range, run_length,
       k, fmt, output_path):
    """Transfer-entropy lag scan from --cause to --effect."""
    matrix = _load_matrix(input_path, (cause, effect), date_range, run_length)
    x, y = matrix.column(cause), matrix.column(effect)
    with _stage("estimation"):
        result = lag_scan(x, y, lags, order_m=order_m, k=k)
    print(f"# te {cause} -> {effect}, order={order_m} k={k} n={len(x)}",
          file=sys.stderr)
    header = ["lag", *_TE_COLUMNS]
    rows = [[lag, *(getattr(est, field) for field in _TE_COLUMNS)]
            for lag, est in result.entries]
    _write(fmt, output_path,
           {"cause": cause, "effect": effect, "order_m": order_m, "k": k,
            "entries": [dict(zip(header, row)) for row in rows]},
           header, rows)


def synth(a, b, c, sigma_eps, sigma_eta, n, seed, burn_in, output_path):
    """Simulate the coupled pair and write a CSV with columns X,Y."""
    from .oracle import Var2Spec, simulate_var2

    with _stage("synth"):
        spec = Var2Spec(a=a, b=b, c=c, sigma_eps=sigma_eps,
                        sigma_eta=sigma_eta, seed=seed)
    xs, ys = simulate_var2(spec, n, burn_in=burn_in)
    # full precision so downstream estimates match the simulation
    _write("csv", output_path, None, ["X", "Y"],
           ((repr(float(xv)), repr(float(yv))) for xv, yv in zip(xs, ys)))
    print(f"# synth n={n} seed={seed} spec=({a},{b},{c},"
          f"{sigma_eps},{sigma_eta})", file=sys.stderr)


def oracle(a, b, c, sigma_eps, sigma_eta, lag, order_m, fmt, output_path):
    """Analytic transfer entropy and Granger ratio of the coupled pair."""
    from .oracle import Var2Spec, analytic_var_te, stationary_covariance

    with _stage("oracle"):
        spec = Var2Spec(a=a, b=b, c=c, sigma_eps=sigma_eps,
                        sigma_eta=sigma_eta)
        te_nats = analytic_var_te(spec, lag=lag, order_m=order_m)
        cov = stationary_covariance(spec)
    gc = 2.0 * te_nats
    _write(fmt, output_path,
           {"te_nats": te_nats, "gc": gc,
            "cov": {"yy": cov[0, 0], "yx": cov[0, 1], "xx": cov[1, 1]},
            "lag": lag, "order_m": order_m},
           ["te_nats", "gc", "cov_yy", "cov_yx", "cov_xx"],
           [[te_nats, gc, cov[0, 0], cov[0, 1], cov[1, 1]]])


def _at_least(low: int):
    """An argparse type: an integer of at least ``low`` (argparse reports
    a non-integer by this function's name, as an invalid integer value)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _add_input(command) -> None:
    """The input, window and estimator options of ``ce`` and ``te``."""
    command.add_argument("-i", "--input", dest="input_path", default="-",
                         metavar="PATH",
                         help="Input CSV path, or - for stdin (default: -).")
    window = command.add_mutually_exclusive_group()
    window.add_argument(
        "--date-range", type=_parse_date_range, metavar="START:END",
        help="Select records in [START, END] (schema'd input only).")
    window.add_argument(
        "--first-complete-run", dest="run_length", type=_at_least(1),
        metavar="N",
        help=f"Select the first N-record complete run (schema'd input only; "
             f"default policy, N={_DEFAULT_RUN}).")
    command.add_argument(
        "--k", type=_at_least(1), default=3,
        help="Neighbor index for the entropy estimator (default: 3).")


def _add_output(command, fmt=True) -> None:
    if fmt:
        command.add_argument("--format", dest="fmt", default="csv",
                             choices=("csv", "json"),
                             help="Output format (default: csv).")
    command.add_argument("-o", "--output", dest="output_path", default="-",
                         metavar="PATH",
                         help="Output path, or - for stdout (default: -).")


def _add_spec(command) -> None:
    for name, value, text in (
            ("a", 0.5, "Effect self-coefficient"),
            ("b", 0.5, "Cause-to-effect coupling"),
            ("c", 0.5, "Cause self-coefficient"),
            ("sigma-eps", 1.0, "Effect innovation stddev"),
            ("sigma-eta", 1.0, "Cause innovation stddev")):
        command.add_argument(f"--{name}", type=float, default=value,
                             help=f"{text} (default: {value}).")


def _parser() -> tuple[_Parser, dict[str, _Parser]]:
    """cete's parser, and each command's parser by its name."""
    parser = _Parser(prog="cete", description="Nonparametric causality "
                                              "analysis via copula entropy.")
    parser.add_argument("--version", action="version",
                        version=f"cete, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sub = command(ce)
    sub.add_argument("--columns", required=True,
                     help="Comma-separated column names (at least two).")
    _add_input(sub)
    _add_output(sub)

    sub = command(te)
    sub.add_argument("--cause", required=True, help="Cause column name.")
    sub.add_argument("--effect", required=True, help="Effect column name.")
    sub.add_argument("--lags", type=parse_lag_spec, default="1..24",
                     metavar="LAGS",
                     help="Lags to scan: ints and a..b ranges, "
                          "comma-separated (default: 1..24).")
    sub.add_argument("-m", "--order", dest="order_m", default=1,
                     type=_at_least(1), metavar="M",
                     help="Markov order of the effect's own past "
                          "(default: 1).")
    _add_input(sub)
    _add_output(sub)

    sub = command(synth)
    _add_spec(sub)
    sub.add_argument("--n", required=True, type=_at_least(1),
                     help="Number of samples to emit.")
    sub.add_argument("--seed", default=0, type=_at_least(0),
                     help="RNG seed (default: 0).")
    sub.add_argument("--burn-in", default=1000, type=_at_least(0),
                     metavar="STEPS",
                     help="Initial steps to discard (default: 1000).")
    _add_output(sub, fmt=False)

    sub = command(oracle)
    _add_spec(sub)
    sub.add_argument("--lag", default=1, type=_at_least(1),
                     help="Cause-to-effect lag (default: 1).")
    sub.add_argument("-m", "--order", dest="order_m", default=1,
                     type=_at_least(1), metavar="M",
                     help="Markov order (default: 1).")
    _add_output(sub)
    return parser, commands.choices


def main(args=None, standalone_mode=True):
    """Run the command that ``args`` (by default ``sys.argv[1:]``) names.

    As a program (``standalone_mode``), report an error on stderr and exit
    with its status. Otherwise return on success and raise to the caller
    a usage error that a command finds, a failure, a closed stdout or an
    interrupt. In either mode an option that argparse refuses exits with
    status 2 after its report, as ``--help`` and ``--version`` exit.
    """
    parser, commands = _parser()
    try:
        options = vars(parser.parse_args(args))
        command = commands[options.pop("command")]
        options.pop("run")(**options)
        # a reader that left after the last write is seen here, not at exit
        sys.stdout.flush()
    except _UsageError as err:
        if not standalone_mode:
            raise
        # argparse's own report: the usage line, the message, status 2
        command.error(str(err))
    except _Failure as err:
        if not standalone_mode:
            raise
        sys.exit(f"Error: {err}")
    except BrokenPipeError:
        if not standalone_mode:
            raise
        # what stdout still buffers goes to devnull, so that the flush at
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        if not standalone_mode:
            raise
        sys.exit("\nAborted!")
