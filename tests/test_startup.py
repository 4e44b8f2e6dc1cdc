"""numpy loads with the first computation, and scipy on the first estimate,
not with cete.

Importing numpy costs more than cete and click together, and scipy's k-d
tree and digamma cost more again, so a command or caller that computes
nothing must load neither, and one that estimates nothing must not load
scipy. Each case runs in a fresh interpreter, since this test process has
long since imported both.
"""
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
transfer_entropy(rng.normal(size=200), rng.normal(size=200),
                 EmbeddingSpec(lag=1))
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
], ids=["import", "version", "help", "te-help", "te-usage-error",
        "ce-usage-error", "date-range-usage-error"])
def test_no_numpy_before_the_first_computation(body):
    # scipy imports numpy, so this rules out scipy too
    assert loaded_modules(body, "numpy") == []


def test_synth_loads_numpy():
    body = cli("synth", "--n", "50", "--output", os.devnull)
    assert "numpy" in loaded_modules(body, "numpy")


def test_ingest_alone_loads_no_scipy(hourly_file):
    assert loaded_modules(INGEST.format(path=str(hourly_file)), "scipy") == []


def test_first_estimate_loads_scipy():
    loaded = loaded_modules(ESTIMATE, "scipy")
    assert "scipy.spatial" in loaded
    assert "scipy.special" in loaded
