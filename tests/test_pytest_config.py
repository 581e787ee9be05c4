"""The repository's pytest configuration, run on a property that fails."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_small(x):
    assert x < 5
'''


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # warnings are errors, but one raised while the hypothesis plugin
    # reports a failure would end the run in INTERNALERROR and lose the example
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_small(" in out and "x=5" in out, out
    assert "1 failed" in out
