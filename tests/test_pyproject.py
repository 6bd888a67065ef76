"""The test settings of pyproject.toml: its warning filters still let a
failing hypothesis property report its falsifying example."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None, deadline=None)
        @given(st.integers())
        def test_below_ten(n):
            assert n < 10
    """), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
