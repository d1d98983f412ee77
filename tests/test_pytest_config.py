"""The repository's pytest settings report a failing hypothesis property
as one failed test, and the session goes on to run the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SESSION = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_a_later_test():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # Run from tmp_path, so the patch file hypothesis writes for the
    # falsifying example lands there.
    (tmp_path / "test_session.py").write_text(SESSION)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
