"""The suite's own pytest settings: a failing test reports as a failure."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_never_holds(n):
    assert n != n
'''


def test_failing_hypothesis_test_reports_a_failure(tmp_path):
    # warnings are errors in this suite; a warning raised inside the
    # hypothesis plugin's report hook must not turn a failure into
    # INTERNALERROR (exit 3)
    test_file = tmp_path / "test_given.py"
    test_file.write_text(FAILING_GIVEN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "test_never_holds" in out
