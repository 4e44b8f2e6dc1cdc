"""The suite's own set-up: a failing property test reports, and the run
goes on to the next test."""
import os
import subprocess
import sys
from pathlib import Path

from conftest import fresh_env

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
