"""scripts/same_results.py: the repository against itself, and its diff."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_results.py"


@pytest.fixture(scope="module")
def same_results():
    spec = importlib.util.spec_from_file_location("same_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_matches_itself():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--inputs", "1", "--seeds", "11"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    # one input per workload (the CLI route adds its JSON), the cyclic shift,
    # the deep near-normal case, the 80-bit and 32-bit cases and the small
    # solver's hard blocks
    assert out.stdout.strip().splitlines()[-1] == (
        "8 items compared, 0 differences, 0 one-sided fields"
    )


def test_floats_are_compared_by_their_bits(same_results):
    plain = same_results._plain
    assert plain(-0.0) != plain(0.0)
    assert plain(complex(1.0, -0.0)) != plain(complex(1.0, 0.0))
    assert plain(1.0) == plain(1.0)


def test_differences_and_one_sided_fields(same_results):
    a = {"x": {"p": "0x1.0p+0", "old": 1}, "v": [1, 2], "w": [1]}
    b = {"x": {"p": "0x1.0000000000001p+0", "new": 2}, "v": [1, 3], "w": [1, 1]}
    diff, one_sided = same_results.differences(a, b)
    assert diff == ["/v[1]", "/w", "/x/p"]
    assert one_sided == ["/x/new", "/x/old"]
    assert same_results.differences(a, a) == ([], [])
