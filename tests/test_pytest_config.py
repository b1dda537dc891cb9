"""The test configuration: a failing property test is reported as a failure.

On a failing ``@given`` test, hypothesis's pytest plugin imports libcst to
write its patch, and libcst warns with a DeprecationWarning on import.
``pyproject.toml`` makes DeprecationWarnings errors, so without its
ignore entry for that one warning the session ended with INTERNALERROR
(exit 3) and hid the results of every test after the failing one.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_property_test_is_one_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
