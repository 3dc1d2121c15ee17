"""scripts/src_lines.py on a tiny source and on a tiny checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"

TINY = '''"""Module docstring,
on two lines."""

import math  # a trailing comment is code

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    on two lines"""

    def f(self, y):
        """Function docstring."""
        return math.sqrt(
            y
        )
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_token_lines_minus_docstrings(src_lines):
    # code: import, class, both lines of x, def, and the three lines of
    # the return statement
    assert src_lines.count(TINY) == (19, 8)


def test_a_checkout_reports_every_module_and_the_sum(tmp_path):
    pkg = tmp_path / "src" / "hessqr"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(TINY, encoding="utf-8")
    (pkg / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert rows == [["a.py", "19", "8"], ["b.py", "2", "1"], ["all", "21", "9"]]
