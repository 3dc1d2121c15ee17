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
    # one input per workload (the CLI route adds its JSON), the cyclic shift
    # through the CLI and through shifted_qr, the deep near-normal case and
    # the default solve of its input, the 80-bit and 32-bit cases, the
    # default solve at n = 256, a default solve with a numpy whose
    # clongdouble is complex128, the small solver's hard blocks and the
    # required bits over a grid of degree overrides
    assert out.stdout.strip().splitlines()[-1] == (
        "13 items compared, 0 differences, 0 one-sided fields"
    )


def test_a_failing_collector_stops_the_comparison(same_results, tmp_path):
    # a checkout without the sources: both collectors exit nonzero, and the
    # run raises rather than compare what they did not write
    with pytest.raises(subprocess.CalledProcessError):
        same_results.main([str(tmp_path), str(tmp_path), "--inputs", "1", "--seeds", "11"])


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


def test_a_key_only_one_raw_text_has_is_one_sided(same_results):
    # json.dumps(..., indent=2, sort_keys=True) of the run document before
    # and after a key is added, the last of its object and holding an object
    old = '{\n  "k": 4,\n  "route": "qr"\n}'
    new = '{\n  "k": 4,\n  "route": "qr",\n  "stats": {\n    "sweeps": 9\n  }\n}'
    assert same_results.differences({"t": old}, {"t": new}) == ([], ["/t/stats"])
    moved = new.replace('"qr"', '"direct"')
    assert same_results.differences({"t": old}, {"t": moved}) == (["/t/route"], ["/t/stats"])
    assert same_results.differences({"t": "a\nb"}, {"t": "a\nc"}) == (["/t"], [])
