"""The suite's own set-up: a failing property test reports, and the run
goes on to the next test; the in-process command-line runner reports what
a fresh process would."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cete.cli import main
from conftest import CliRunner, fresh_env

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_reports_and_the_run_goes_on(tmp_path):
    # pyproject.toml's warning filters, with this suite's conftest loaded
    # as a plugin, around one failing @given test and one after it
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = fresh_env()
    env["PYTHONPATH"] = os.pathsep.join((str(TESTS), env["PYTHONPATH"]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "-p", "conftest",
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1


@pytest.mark.parametrize("args", [
    ["--version"],
    ["synth", "--n", "3"],
    ["oracle", "--a", "1.2"],
    ["te", "--cause", "X", "--effect", "Y", "--k", "0"],
], ids=["version", "success", "failure", "usage-error"])
def test_runner_reports_what_a_process_does(args):
    proc = subprocess.run(
        [sys.executable, "-c", "from cete.cli import main; main()", *args],
        env=fresh_env(), capture_output=True, text=True, timeout=120)
    result = CliRunner().invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == \
        (proc.returncode, proc.stdout, proc.stderr)
    # each of these commands writes all of its stdout before its stderr
    assert result.output == proc.stdout + proc.stderr
