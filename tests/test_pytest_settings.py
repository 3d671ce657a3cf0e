"""The repository's pytest settings let a failing Hypothesis test report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(derandomize=True, database=None)
def test_fails(n):
    assert n < 10
"""


def test_failing_given_test_prints_its_example(tmp_path):
    """Under the repository's warning filters a failing @given test fails
    the session (exit 1) and prints its falsifying example: reporting it
    must not raise a DeprecationWarning that stops pytest (exit 3)."""
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
