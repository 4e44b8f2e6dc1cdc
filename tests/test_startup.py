"""scipy loads on the first estimate, not with cete.

Importing scipy's k-d tree and digamma costs more than the rest of cete's
import, so commands and callers that estimate nothing must never load it.
Each case runs in a fresh interpreter, since this test process has long
since imported scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import synth_pm25_csv

SRC = Path(__file__).resolve().parent.parent / "src"

CLI = """
from cete.cli import main
try:
    main({args!r})
except SystemExit as exit:
    assert not exit.code, exit.code
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


def scipy_modules(body: str) -> list[str]:
    """The scipy modules loaded after running ``body`` in a fresh interpreter."""
    probe = body + (
        "\nimport json, sys\nprint(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def hourly_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "hourly.csv"
    path.write_text(synth_pm25_csv(48))
    return path


@pytest.mark.parametrize("body", [
    "import cete",
    CLI.format(args=["--version"]),
    CLI.format(args=["synth", "--n", "50", "--output", os.devnull]),
    CLI.format(args=["oracle", "--output", os.devnull]),
], ids=["import", "version", "synth", "oracle"])
def test_no_scipy_before_the_first_estimate(body):
    assert scipy_modules(body) == []


def test_ingest_alone_loads_no_scipy(hourly_file):
    assert scipy_modules(INGEST.format(path=str(hourly_file))) == []


def test_first_estimate_loads_scipy():
    loaded = scipy_modules(ESTIMATE)
    assert "scipy.spatial" in loaded
    assert "scipy.special" in loaded
