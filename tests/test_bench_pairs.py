"""scripts/bench_pairs.py with a stub runner: the order of its runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(bench_pairs):
    assert bench_pairs.parse_seeds("1..3,7, 9..10") == [1, 2, 3, 7, 9, 10]
    assert bench_pairs.parse_seeds("5") == [5]


def test_pairs_alternate_which_side_runs_first(bench_pairs, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def stub(argv, cwd):
        calls.append((Path(cwd), argv))
        return 0

    failed = bench_pairs.run_pairs(parent, change, ["qr_small", "direct_default"], [1, 2], 45,
                                   tmp_path / "BENCH.json", stub)
    assert failed == 0
    runs = [(cwd.name, argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1]),
             argv[-1]) for cwd, argv in calls[:-1]]
    assert runs == [
        ("parent", "qr_small", 1, "0"), ("change", "qr_small", 1, "0"),
        ("change", "qr_small", 2, "0"), ("parent", "qr_small", 2, "0"),
        ("parent", "qr_small", 11, "1"), ("change", "qr_small", 11, "1"),
        ("parent", "direct_default", 1, "0"), ("change", "direct_default", 1, "0"),
        ("change", "direct_default", 2, "0"), ("parent", "direct_default", 2, "0"),
        ("parent", "direct_default", 11, "1"), ("change", "direct_default", 11, "1"),
    ]
    for _, argv in calls[:-1]:
        assert argv[:2] == [sys.executable, "perfbench/run.py"]
        assert argv[argv.index("--seconds") + 1] == "45"
    _, summary = calls[-1]
    assert Path(summary[1]).name == "bench_summary.py"
    assert summary[2:] == [str(change / ".perfbench_out"), "--baseline",
                           str(parent / ".perfbench_out"), "--out", str(tmp_path / "BENCH.json")]


def test_failed_runs_are_counted(bench_pairs, tmp_path):
    def stub(argv, cwd):
        return 1 if Path(cwd).name == "change" and "--trace" in argv and argv[-1] == "0" else 0

    failed = bench_pairs.run_pairs(tmp_path / "parent", tmp_path / "change", ["qr_small"],
                                   [1, 2, 3], 1, tmp_path / "out.json", stub)
    assert failed == 3


def test_stale_results_block_a_run(bench_pairs, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / ".perfbench_out").mkdir(parents=True)
    (parent / ".perfbench_out" / "qr_small-seed1-trace0.json").write_text("{}")  # rewritten
    (change / ".perfbench_out" / "qr_small-seed4-trace0.json").write_text("{}")  # stale
    (change / ".perfbench_out" / "notes.txt").write_text("")  # not a result file
    runs = bench_pairs.plan(parent, change, ["qr_small"], [1, 2], 45)
    assert bench_pairs.stale_results(runs) == [change / ".perfbench_out" / "qr_small-seed4-trace0.json"]
