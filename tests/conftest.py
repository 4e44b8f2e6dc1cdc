"""Shared fixtures: canonical dataset discovery, synthetic CSV builders, the
benchmark's own modules, the brute-force neighbor-distance references on
raw points and on ranks, the least-squares Granger ratio, the raw
four-entropy TE reference, fresh interpreters that import this checkout's
cete and an in-process runner of its command line."""
from __future__ import annotations

import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from cete import build_embedding
from cete.causality import _ASSOC, _PAST
from cete.knn_entropy import kl_entropy

# When a property fails, hypothesis explains it with a module that imports
# libcst, which raises a DeprecationWarning of its own. Under the suite's
# error::DeprecationWarning that import would abort the whole run, so it is
# made once here, before any test, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

CANONICAL_NAME = "PRSA_data_2010.1.1-2014.12.31.csv"
PM25_HEADER_LINE = "No,year,month,day,hour,pm2.5,DEWP,TEMP,PRES,cbwd,Iws,Is,Ir"

_CBWD = ("NW", "NE", "SE", "cv")
SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded from its file without putting
    bench/ on the import path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_env() -> dict:
    """The environment for a child interpreter that imports this checkout's
    cete."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_fresh(body: str):
    """The last line that ``body`` prints, read as JSON, from a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", body], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class _Tee(io.StringIO):
    """A captured stream that also copies what it is given into ``mixed``."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


@dataclass(frozen=True)
class CliResult:
    """A command's exit status and what it printed: on each stream, and
    both interleaved as a terminal shows them (``output``)."""

    exit_code: int
    stdout: str
    stderr: str
    output: str


class CliRunner:
    """Runs a command-line entry point in this process, with ``input`` as
    its stdin and its stdout and stderr captured."""

    def invoke(self, main, args, input: str = "") -> CliResult:
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        stdin, sys.stdin = sys.stdin, io.StringIO(input)
        code = 0
        try:
            with redirect_stdout(out), redirect_stderr(err):
                main(list(args))
        except SystemExit as exit:
            # as the interpreter exits: None is 0, and any other non-integer
            # is printed to stderr and is 1
            if exit.code is None or isinstance(exit.code, int):
                code = exit.code or 0
            else:
                err.write(f"{exit.code}\n")
                code = 1
        finally:
            sys.stdin = stdin
        return CliResult(code, out.getvalue(), err.getvalue(),
                         mixed.getvalue())


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def _candidate_paths() -> list[Path]:
    paths = []
    env = os.environ.get("CETE_PM25_CSV")
    if env:
        paths.append(Path(env))
    root = Path(__file__).resolve().parent.parent
    paths.append(root / "data" / CANONICAL_NAME)
    paths.append(root / CANONICAL_NAME)
    return paths


@pytest.fixture(scope="session")
def pm25_path() -> Path:
    """Path to the canonical hourly PM2.5 CSV, or skip with instructions."""
    for path in _candidate_paths():
        if path.is_file():
            return path
    pytest.skip(
        f"canonical hourly PM2.5 dataset not found; download "
        f"'Beijing PM2.5 Data' from the UCI Machine Learning Repository and "
        f"place {CANONICAL_NAME} under data/ (or point CETE_PM25_CSV at it)"
    )


@pytest.fixture(scope="session")
def pm25_table(pm25_path):
    from cete import parse_pm25_csv

    return parse_pm25_csv(pm25_path)


def synth_pm25_csv(n: int, missing=(), start: datetime | None = None,
                   missing_temp=()) -> str:
    """Synthetic CSV with the hourly PM2.5 schema.

    ``missing`` lists row indices whose pm2.5 field is NA; ``missing_temp``
    does the same for TEMP. Values are deterministic functions of the row
    index so round-trip tests can predict them exactly.
    """
    ts = start or datetime(2010, 1, 1, 0)
    lines = [PM25_HEADER_LINE]
    for i in range(n):
        pm = "NA" if i in missing else f"{50.0 + 7.0 * ((i * 13) % 11)}"
        temp = "NA" if i in missing_temp else f"{2.0 + 0.25 * (i % 40)}"
        lines.append(
            f"{i + 1},{ts.year},{ts.month},{ts.day},{ts.hour},{pm},"
            f"{-5.0 + 0.5 * (i % 30)},{temp},{1020.0 - 0.125 * (i % 50)},"
            f"{_CBWD[i % 4]},{1.75 + 0.5 * i},{0},{0}"
        )
        ts += timedelta(hours=1)
    return "\n".join(lines) + "\n"


@pytest.fixture
def make_pm25_file(tmp_path):
    """Factory writing a synthetic schema'd CSV and returning its path."""

    def _make(n: int, **kwargs) -> Path:
        path = tmp_path / "hourly.csv"
        path.write_text(synth_pm25_csv(n, **kwargs))
        return path

    return _make


def gaussian_pair(rho: float, n: int, seed: int) -> np.ndarray:
    """n samples of a bivariate standard Gaussian with correlation rho."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    y = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    return np.column_stack([z[:, 0], y])


def brute_knn_eps(points: np.ndarray, k: int) -> np.ndarray:
    """Doubled max-norm k-th-neighbor distance per row of ``points``, by full scan.

    The reference that ``knn_distances`` must match bit for bit: every
    pairwise Chebyshev distance is computed, a block of rows at a time to
    bound memory, and the k-th smallest per row is picked by partition.
    """
    block = 128  # (128, N, d) differences: 41 MB at N=2000, d=20
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    out = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = np.abs(pts[start:stop, None, :] - pts[None, :, :]).max(axis=2)
        rows = np.arange(start, stop)
        dist[rows - start, rows] = np.inf  # a point is not its own neighbor
        out[start:stop] = np.partition(dist, k - 1, axis=1)[:, k - 1]
    return 2.0 * out


def brute_rank_distances(ranks: np.ndarray, k: int,
                         rows: np.ndarray | None = None) -> np.ndarray:
    """Integer max-norm k-th-neighbor distance of each given row of an
    integer rank matrix, by default every row, against all N, by full scan.

    The reference that the copula path's distances D must equal exactly:
    every pairwise Chebyshev distance of the ranks, as int64, is computed,
    a block of rows at a time, and the k-th smallest per row is picked by
    partition.
    """
    block = 128
    n = ranks.shape[0]
    ranks = np.asarray(ranks, np.int64)
    rows = np.arange(n) if rows is None else np.asarray(rows)
    out = np.empty(len(rows), np.int64)
    for start in range(0, len(rows), block):
        these = rows[start:start + block]
        part = ranks[these, None, :]
        # the largest over the columns, one column at a time
        dist = np.abs(part[..., 0] - ranks[None, :, 0])
        for col in range(1, ranks.shape[1]):
            np.maximum(dist, np.abs(part[..., col] - ranks[None, :, col]),
                       out=dist)
        dist[np.arange(len(these)), these] = n + 1  # farther than any other
        out[start:start + block] = np.partition(dist, k - 1, axis=1)[:, k - 1]
    return out


def granger_log_ratio(x, y, spec) -> float:
    """Granger log variance ratio of X -> Y, ln(RSS_past / RSS_assoc), from
    least-squares fits of y_fut on (1, y_past) and on (1, y_past, x), the
    columns of ``build_embedding``. Half of it estimates the transfer
    entropy of Gaussian data."""
    emb = build_embedding(x, y, spec)
    y_fut = emb.column("y_fut")
    rss = []
    for given in (_PAST, _ASSOC):
        design = np.column_stack([np.ones(emb.T), emb.values[:, given]])
        resid = y_fut - design @ np.linalg.lstsq(design, y_fut, rcond=None)[0]
        rss.append(resid @ resid)
    return math.log(rss[0]) - math.log(rss[1])


def raw_four_entropy_te(x, y, spec, k: int = 3) -> float:
    """TE X -> Y from four kNN entropies of the raw lag embedding.

    The same four column subsets of the same joint block as
    ``transfer_entropy``, without the rank transform:

        -H(y_fut, y_past, x) + H(y_fut, y_past) + H(y_past, x) - H(y_past)

    It lacks the copula route's invariance under monotone transforms, which
    makes it the contrast that shows that invariance is not automatic.
    """
    emb = build_embedding(x, y, spec).values
    return (-kl_entropy(emb, k) + kl_entropy(emb[:, :-1], k)
            + kl_entropy(emb[:, 1:], k) - kl_entropy(emb[:, 1:-1], k))

