"""numpy loads with the first computation, and scipy on the first k-d tree
search, not with cete; the command line loads no third-party module.

Importing numpy costs more than cete and its command line together, and
scipy's k-d tree costs more again, more than a whole lag scan over cete
te's default 1000-row window. So a command or caller that computes
nothing must load neither, and one that estimates nothing, estimates on
fewer than 1024 rows (which the pairwise pass serves, with cete's own
digamma), or estimates at Markov order 1 with k <= 3 below 2^15 rows
(which the diagonal walk serves), must not load scipy. Each case runs in
a fresh interpreter, since this test process has long since imported
both.
"""
import json
import os

import pytest

from conftest import run_fresh, synth_pm25_csv

CLI = """
from cete.cli import main
try:
    main({args!r})
except SystemExit as exit:
    assert exit.code == {code}, exit.code
"""

INGEST = """
import io
from cete import parse_pm25_csv, read_columns
assert len(parse_pm25_csv({path!r})) == 48
assert read_columns(io.StringIO("a,b\\n1,2\\n3,4\\n"), ("a", "b")).T == 2
"""

ESTIMATE = """
import numpy as np
from cete import EmbeddingSpec, transfer_entropy
rng = np.random.default_rng(0)
transfer_entropy(rng.normal(size={n}), rng.normal(size={n}),
                 EmbeddingSpec(lag=1, order_m={m}))
"""


def cli(*args: str, code: int = 0) -> str:
    """A program running ``cete ARGS`` that checks its exit code."""
    return CLI.format(args=list(args), code=code)


def loaded_modules(body: str, package: str) -> list[str]:
    """The modules of ``package`` loaded after running ``body`` in a fresh
    interpreter."""
    return run_fresh(body + (
        "\nimport json, sys\nprint(json.dumps(sorted("
        f"m for m in sys.modules if m.split('.')[0] == {package!r})))\n"))


@pytest.fixture(scope="module")
def hourly_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "hourly.csv"
    path.write_text(synth_pm25_csv(48))
    return path


@pytest.mark.parametrize("body", [
    "import cete",
    cli("--version"),
    cli("synth", "--n", "50", "--output", os.devnull),
    cli("oracle", "--output", os.devnull),
], ids=["import", "version", "synth", "oracle"])
def test_no_scipy_before_the_first_estimate(body):
    assert loaded_modules(body, "scipy") == []


@pytest.mark.parametrize("body", [
    "import cete",
    cli("--version"),
    cli("--help"),
    cli("te", "--help"),
    cli("te", "--cause", "X", "--effect", "Y", "--lags", "0",
        "--input", os.devnull, code=2),
    cli("ce", "--columns", "X", "--input", os.devnull, code=2),
    cli("te", "--cause", "X", "--effect", "Y", "--date-range",
        "2011-13-01:2011-02-01", "--input", os.devnull, code=2),
    cli("te", "--cause", "X", "--effect", "Y", "--date-range",
        "2010-01-01:2010-01-02", "--first-complete-run", "50",
        "--input", os.devnull, code=2),
    cli("te", "--cause", "X", "--effect", "Y", "--lags", "4,2",
        "--input", os.devnull, code=2),
], ids=["import", "version", "help", "te-help", "te-usage-error",
        "ce-usage-error", "date-range-usage-error",
        "conflicting-window-flags", "bad-lags"])
def test_no_numpy_before_the_first_computation(body):
    # scipy imports numpy, so this rules out scipy too
    assert loaded_modules(body, "numpy") == []


@pytest.mark.parametrize("body", [
    "import cete.cli",
    cli("--version"),
    cli("--help"),
    cli("te", "--cause", "X", "--effect", "Y", "--k", "0", code=2),
], ids=["import", "version", "help", "usage-error"])
def test_command_line_loads_no_click(body):
    assert loaded_modules(body, "click") == []


def test_synth_loads_numpy():
    body = cli("synth", "--n", "50", "--output", os.devnull)
    assert "numpy" in loaded_modules(body, "numpy")


def test_ingest_alone_loads_no_scipy(hourly_file):
    assert loaded_modules(INGEST.format(path=str(hourly_file)), "scipy") == []


def test_estimate_below_1024_rows_loads_no_scipy(tmp_path):
    assert loaded_modules(ESTIMATE.format(n=200, m=1), "scipy") == []
    # on one 1000-row window: cete te with its default flags (lags 1..24,
    # each row compared with a window of its neighbors), at Markov order 12
    # (full rows), and cete ce
    window = tmp_path / "window.csv"
    window.write_text(synth_pm25_csv(1000))
    te = ("te", "--cause", "TEMP", "--effect", "pm2.5")
    commands = {"te": te, "te-m12": (*te, "-m", "12"),
                "ce": ("ce", "--columns", "TEMP,pm2.5,DEWP")}
    for name, args in commands.items():
        output = tmp_path / f"{name}.json"
        body = cli(*args, "--format", "json", "--input", str(window),
                   "--output", str(output))
        assert loaded_modules(body, "scipy") == [], name
        result = json.loads(output.read_text())
        if name == "ce":
            assert result["n"] == 1000
        else:
            assert len(result["entries"]) == 24, name


@pytest.mark.parametrize("rows", [1100, 2**15 - 1])
def test_order_1_estimate_loads_no_scipy(rows):
    # at lag 1 and order 1, rows + 1 values embed in that many rows; the
    # walk searches the joint, self and assoc terms
    assert loaded_modules(ESTIMATE.format(n=rows + 1, m=1), "scipy") == []


def test_order_2_estimate_on_1100_rows_loads_scipy():
    # the four-column joint term takes the k-d tree
    body = ESTIMATE.format(n=1102, m=2)
    assert "scipy.spatial" in loaded_modules(body, "scipy")
