"""The repository's pytest settings, checked on a throwaway test file in a fresh pytest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_runs_after():
    pass
'''


def test_a_failing_property_test_shows_its_example_and_later_tests_still_run(tmp_path):
    # Every warning is an error, so a warning raised while hypothesis reports a failure
    # would stop pytest with INTERNALERROR (exit 3), hiding the example and later tests.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "-p", "no:cacheprovider", "-q", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
