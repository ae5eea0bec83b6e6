"""The project's pytest configuration, exercised in a child pytest run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_deliberately_fails(x):
    assert x < 10
'''


def test_failing_property_test_reports_its_falsifying_example(tmp_path):
    """Under the DeprecationWarning-as-error filter, a failing hypothesis
    test must still report its falsifying example, not crash pytest."""
    pytest.importorskip("hypothesis")
    test_file = tmp_path / "test_deliberately_failing.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(test_file)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert "1 failed" in output, output
