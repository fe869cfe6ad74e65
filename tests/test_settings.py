"""The repository's pytest settings must report a failing test, not hide it."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = textwrap.dedent("""\
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails_for_some_integer(x):
        assert x < 0


    def test_passes():
        pass
""")


def test_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # warnings are errors here; one raised while hypothesis reports the
    # failure would end the run with INTERNALERROR before test_passes ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_probe.py::test_fails_for_some_integer" in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
