"""The repo's pytest configuration reports failures instead of crashing."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_probe(x):
    assert x < 5
"""

WARN = """\
import warnings


def test_warns():
    warnings.warn("old", DeprecationWarning)
"""


def test_failing_hypothesis_test_is_named_and_other_deprecations_still_fail(tmp_path):
    # A falsifying example makes hypothesis's plugin import libcst, whose
    # import warns; that warning must not turn the report into an
    # INTERNALERROR (exit 3), and a DeprecationWarning of the code under
    # test must still fail its test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    (tmp_path / "test_warn.py").write_text(WARN)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
            "test_probe.py", "test_warn.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_probe" in out
    assert "FAILED test_warn.py::test_warns - DeprecationWarning: old" in out
