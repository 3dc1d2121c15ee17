"""scripts/bench_summary.py on hand-made perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_runs(directory, runs):
    """One ``--trace 0`` result file per (seed, wall_s, setup_s, unscaled wall_s, unscaled setup_s)."""
    directory.mkdir()
    for seed, wall, setup, raw_wall, raw_setup in runs:
        metrics = {"wall_s": wall, "setup_s": setup, "rss_mb": 80.0 + seed}
        doc = {
            "environment": {"src_hessqr_lines": 100, "src_sha256": "x"},
            "result": {"failed": 0, "correct": True,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}},
            "unscaled_s": {"wall_s": raw_wall, "setup_s": raw_setup},
        }
        (directory / f"qr_small-seed{seed}-trace0.json").write_text(json.dumps(doc))


def test_unscaled_medians_next_to_rescaled(bench_summary, tmp_path):
    _write_runs(tmp_path / "change", [(1, 2.0, 20.0, 1.0, 10.0), (2, 4.0, 40.0, 3.0, 30.0), (3, 6.0, 60.0, 5.0, 50.0)])
    _write_runs(tmp_path / "base", [(1, 3.0, 30.0, 2.0, 20.0), (2, 5.0, 50.0, 4.0, 40.0), (3, 7.0, 70.0, 9.0, 90.0)])
    summary = bench_summary.summarize(tmp_path / "change", tmp_path / "base")
    entry = summary["workloads"]["qr_small"]
    assert entry["trace0"]["median"]["wall_s"] == 4.0
    # rss_mb is not rescaled, so it has no unscaled median
    assert entry["trace0"]["unscaled_median"] == {"wall_s": 3.0, "setup_s": 30.0}
    assert entry["baseline_trace0"]["unscaled_median"] == {"wall_s": 4.0, "setup_s": 40.0}
    assert entry["pairs"]["wall_s"]["baseline_median"] == 5.0
