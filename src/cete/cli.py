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
input. Data goes to the output stream, diagnostics to stderr, and the
exit code is 0 only if the computation completed.

CSV output uses 6 significant digits (plot-grade); JSON keeps full
precision (regression-grade).
"""
from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from datetime import datetime
from typing import TYPE_CHECKING

import click

from . import __version__
from .checks import _check_lags
from .errors import CeteError, SchemaMismatchError

if TYPE_CHECKING:
    from .core import SeriesMatrix
    from .oracle import Var2Spec

__all__ = ["main", "parse_lag_spec"]

_DEFAULT_RUN = 1000  # default complete-window length, in hours


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
    pass the library's lag rule: strictly increasing, every lag >= 1.
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
            raise click.UsageError(f"bad lag spec item {item!r}")
    try:
        return _check_lags(lags)
    except (TypeError, ValueError) as err:
        raise click.UsageError(str(err))


def _parse_date_range(text: str) -> tuple[datetime, datetime]:
    """(start, end) of a --date-range value, checked before numpy loads."""
    parts = text.split(":")
    if len(parts) != 2:
        raise click.UsageError(
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
            raise click.UsageError(f"bad date {part!r} in range {text!r}")
    start, end = stamps
    if end < start:
        raise click.UsageError(f"date range ends before it starts: {text!r}")
    return start, end


def _load_matrix(input_path: str, columns: tuple[str, ...],
                 date_range: str | None, run_length: int | None,
                 ) -> SeriesMatrix:
    """Load the requested columns, resolving a window for schema'd input."""
    if date_range is not None and run_length is not None:
        raise click.UsageError(
            "--date-range and --first-complete-run are mutually exclusive"
        )
    if len(set(columns)) < len(columns):
        raise click.UsageError(
            f"columns must be distinct, got {', '.join(columns)}"
        )
    bounds = _parse_date_range(date_range) if date_range is not None else None
    from .ingest import ByDateRange, FirstCompleteRun, read_columns

    with _stage("ingest"):
        with _open(input_path, "r") as stream:
            lines = list(stream)
        try:
            table = parse_pm25_csv(lines)
        except SchemaMismatchError:
            if bounds is not None or run_length is not None:
                raise click.UsageError(
                    "window flags apply only to the hourly air-quality "
                    "schema; this input has a different header"
                )
            return read_columns(lines, columns)
        policy = (ByDateRange(*bounds) if bounds is not None
                  else FirstCompleteRun(run_length or _DEFAULT_RUN))
        window = select_window(table, policy, required_columns=columns)
        matrix = to_series_matrix(table, window, columns)
    start = table.timestamps[window.start].item()
    click.echo(f"# window: {window.stop - window.start} records from "
               f"{start}", err=True)
    return matrix


@contextmanager
def _stage(name: str):
    """Report a library error raised in the block as ``name: message``, exit 1."""
    try:
        yield
    except CeteError as err:
        raise click.ClickException(f"{name}: {err}")


@contextmanager
def _open(path: str, mode: str):
    """The stream for ``path``, closed on exit (``-``: stdin or stdout, left open)."""
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
        return
    try:
        stream = open(path, mode, encoding="utf-8", newline="")
    except OSError as err:
        raise click.ClickException(
            f"{'ingest' if mode == 'r' else 'output'}: {err}")
    with stream:
        yield stream


def _write_rows(path: str, header: list[str], rows) -> None:
    """CSV output: 6 significant digits, exactly one trailing newline."""
    with _open(path, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
            )


def _write(fmt: str, path: str, payload, header: list[str], rows) -> None:
    """The result as JSON (``payload``) or as CSV (``header`` and ``rows``)."""
    if fmt == "csv":
        _write_rows(path, header, rows)
        return
    with _open(path, "w") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")


_input_option = click.option("--input", "-i", "input_path", default="-",
                             show_default=True,
                             help="Input CSV path, or - for stdin.")
_format_option = click.option("--format", "fmt", default="csv",
                              show_default=True,
                              type=click.Choice(["csv", "json"]),
                              help="Output format.")
_output_option = click.option("--output", "-o", "output_path", default="-",
                              show_default=True,
                              help="Output path, or - for stdout.")


def _window_options(fn):
    fn = click.option(
        "--date-range", default=None, metavar="START:END",
        help="Select records in [START, END] (schema'd input only).",
    )(fn)
    fn = click.option(
        "--first-complete-run", "run_length", default=None,
        type=click.IntRange(min=1), metavar="N",
        help=f"Select the first N-record complete run (schema'd input "
             f"only; default policy, N={_DEFAULT_RUN}).",
    )(fn)
    return fn


def _common_options(fn):
    fn = click.option("--k", default=3, show_default=True,
                      type=click.IntRange(min=1),
                      help="Neighbor index for the entropy estimator.")(fn)
    return _output_option(_format_option(fn))


@click.group()
@click.version_option(version=__version__, prog_name="cete")
def main():
    """Nonparametric causality analysis via copula entropy."""


@main.command()
@_input_option
@click.option("--columns", required=True,
              help="Comma-separated column names (at least two).")
@_window_options
@_common_options
def ce(input_path, columns, date_range, run_length, k, fmt, output_path):
    """Copula entropy of the selected columns."""
    names = tuple(c.strip() for c in columns.split(",") if c.strip())
    if len(names) < 2:
        raise click.UsageError("need at least two columns")
    matrix = _load_matrix(input_path, names, date_range, run_length)
    from .copula import copula_entropy

    with _stage("estimation"):
        value = copula_entropy(matrix, k)
    click.echo(f"# columns={','.join(names)} n={matrix.T} k={k}", err=True)
    _write(fmt, output_path,
           {"ce_nats": value, "n": matrix.T, "k": k, "columns": list(names)},
           ["ce_nats", "n", "k"], [[value, matrix.T, k]])


# TeEstimate fields, in output order after "lag"
_TE_COLUMNS = ("te_nats", "ce_joint", "ce_self", "ce_assoc", "ce_past",
               "n_effective")


@main.command()
@_common_options
@_window_options
@click.option("--order", "-m", "order_m", default=1, show_default=True,
              type=click.IntRange(min=1),
              help="Markov order of the effect's own past.")
@click.option("--lags", "lags_spec", default="1..24", show_default=True,
              help="Lags to scan: ints and a..b ranges, comma-separated.")
@click.option("--effect", required=True, help="Effect column name.")
@click.option("--cause", required=True, help="Cause column name.")
@_input_option
def te(input_path, cause, effect, lags_spec, order_m, date_range, run_length,
       k, fmt, output_path):
    """Transfer-entropy lag scan from --cause to --effect."""
    lags = parse_lag_spec(lags_spec)
    matrix = _load_matrix(input_path, (cause, effect), date_range, run_length)
    x, y = matrix.column(cause), matrix.column(effect)
    with _stage("estimation"):
        result = lag_scan(x, y, lags, order_m=order_m, k=k)
    click.echo(f"# te {cause} -> {effect}, order={order_m} k={k} "
               f"n={len(x)}", err=True)
    header = ["lag", *_TE_COLUMNS]
    rows = [[lag, *(getattr(est, field) for field in _TE_COLUMNS)]
            for lag, est in result.entries]
    _write(fmt, output_path,
           {"cause": cause, "effect": effect, "order_m": order_m, "k": k,
            "entries": [dict(zip(header, row)) for row in rows]},
           header, rows)


def _spec_options(fn):
    fn = click.option("--a", default=0.5, show_default=True,
                      help="Effect self-coefficient.")(fn)
    fn = click.option("--b", default=0.5, show_default=True,
                      help="Cause-to-effect coupling.")(fn)
    fn = click.option("--c", default=0.5, show_default=True,
                      help="Cause self-coefficient.")(fn)
    fn = click.option("--sigma-eps", default=1.0, show_default=True,
                      help="Effect innovation stddev.")(fn)
    fn = click.option("--sigma-eta", default=1.0, show_default=True,
                      help="Cause innovation stddev.")(fn)
    return fn


def _make_spec(stage, a, b, c, sigma_eps, sigma_eta, seed=0) -> Var2Spec:
    """The spec of the options, a bad one reported under ``stage``."""
    from .oracle import Var2Spec

    with _stage(stage):
        return Var2Spec(a=a, b=b, c=c, sigma_eps=sigma_eps,
                        sigma_eta=sigma_eta, seed=seed)


@main.command()
@_spec_options
@click.option("--n", required=True, type=click.IntRange(min=1),
              help="Number of samples to emit.")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0), help="RNG seed.")
@click.option("--burn-in", default=1000, show_default=True,
              type=click.IntRange(min=0),
              help="Initial steps to discard.")
@_output_option
def synth(a, b, c, sigma_eps, sigma_eta, n, seed, burn_in, output_path):
    """Simulate the coupled pair and write a CSV with columns X,Y."""
    from .oracle import simulate_var2

    spec = _make_spec("synth", a, b, c, sigma_eps, sigma_eta, seed)
    xs, ys = simulate_var2(spec, n, burn_in=burn_in)
    # full precision so downstream estimates match the simulation
    _write_rows(output_path, ["X", "Y"],
                ((repr(float(xv)), repr(float(yv))) for xv, yv in zip(xs, ys)))
    click.echo(f"# synth n={n} seed={seed} spec=({a},{b},{c},"
               f"{sigma_eps},{sigma_eta})", err=True)


@main.command()
@_spec_options
@click.option("--lag", default=1, show_default=True,
              type=click.IntRange(min=1), help="Cause-to-effect lag.")
@click.option("--order", "-m", "order_m", default=1, show_default=True,
              type=click.IntRange(min=1), help="Markov order.")
@_format_option
@_output_option
def oracle(a, b, c, sigma_eps, sigma_eta, lag, order_m, fmt, output_path):
    """Analytic transfer entropy and Granger ratio of the coupled pair."""
    from .oracle import analytic_var_te, stationary_covariance

    spec = _make_spec("oracle", a, b, c, sigma_eps, sigma_eta)
    with _stage("oracle"):
        te_nats = analytic_var_te(spec, lag=lag, order_m=order_m)
        cov = stationary_covariance(spec)
    gc = 2.0 * te_nats
    _write(fmt, output_path,
           {"te_nats": te_nats, "gc": gc,
            "cov": {"yy": cov[0, 0], "yx": cov[0, 1], "xx": cov[1, 1]},
            "lag": lag, "order_m": order_m},
           ["te_nats", "gc", "cov_yy", "cov_yx", "cov_xx"],
           [[te_nats, gc, cov[0, 0], cov[0, 1], cov[1, 1]]])
