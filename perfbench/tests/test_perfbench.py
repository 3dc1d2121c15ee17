"""Tests of the benchmark itself, on tiny (n=8) versions of its workloads.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import bench  # noqa: E402
import hessqr  # noqa: E402
import hessqr.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
OWNERS = (
    hessqr,
    hessqr.cli,
    hessqr.driver,
    hessqr.iqr,
    hessqr.ritz,
    hessqr.shifting,
    hessqr.smalleig.CharPolySolver,
)


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n=8, batch=3, trace_inputs=2)


def run(wl, trace, seed=3):
    return bench.run(wl, seed, 0.2, trace, time.perf_counter(), setup_probes=0)


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def assert_unchanged(before, after):
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[k] is b[k] for k in b)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    wl = tiny(name)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = run(wl, trace)
        assert line["correct"], line
        assert line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_corrupted_eigenvalue_trips_the_gate(tmp_path, monkeypatch):
    real = hessqr.shifted_qr

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.eigenvalues[0] += 1e-3
        return res

    monkeypatch.setattr(hessqr, "shifted_qr", corrupted)
    monkeypatch.setitem(workloads.WORKLOADS, "qr_small", tiny("qr_small"))
    monkeypatch.setattr(bench, "_setup_probes", lambda wl, seed, count: [])
    args = argparse.Namespace(workload="qr_small", seed=3, seconds=0.2, trace=0, setup_probe=False)
    assert bench.main(args, time.perf_counter()) == 1
    record = json.loads((tmp_path / "qr_small-seed3-trace0.json").read_text(encoding="ascii"))
    assert not record["result"]["correct"]
    assert record["result"]["failed"] == record["result"]["attempted"]


def test_cli_reference_rejects_a_moved_eigenvalue(tmp_path):
    wl = tiny("direct_default")
    ref = workloads.Reference(wl, workloads.build_inputs(wl, 3, tmp_path)[0])
    eigs = np.array(ref.eigs, dtype=np.complex128)
    assert ref.check(eigs, 1e-6)[0]
    eigs[0] += 1e-3
    assert not ref.check(eigs, 1e-6)[0]


def test_traced_run_restores_module_attributes(tmp_path):
    before = snapshot()
    line, _ = run(tiny("qr_small"), trace=1)
    assert line["correct"]
    assert_unchanged(before, snapshot())
    before = snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().patched():
            raise RuntimeError("stop inside the traced block")
    assert_unchanged(before, snapshot())


def test_missing_name_fails_loudly_and_restores(monkeypatch):
    monkeypatch.delattr(hessqr.shifting, "exc")
    before = snapshot()
    with pytest.raises(tracer.TracingError, match="hessqr.shifting.exc"):
        with tracer.Tracer().patched():
            pass
    assert_unchanged(before, snapshot())


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    wl = tiny("qr_small")
    first, _ = run(wl, trace=1)
    second, record = run(wl, trace=1)  # compares against the first run's counts
    assert first["correct"] and second["correct"], record["problems"]
    m = {k: v["value"] for k, v in second["metrics"].items()}
    assert m["iqr.iqr_single.calls"] == first["metrics"]["iqr.iqr_single.calls"]["value"] > 0
    assert m["shifting.sh_step.calls"] == m["driver.branch.ritz_shift"] + m["driver.branch.exceptional"]
    self_sum = sum(m[s + ".self_s"] for s in tracer.SPANS)
    assert self_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)

    counts = next(tmp_path.glob("counts-*.json"))
    saved = json.loads(counts.read_text(encoding="ascii"))
    saved["iqr.iqr_single.calls"] += 1
    counts.write_text(json.dumps(saved), encoding="ascii")
    third, record = run(wl, trace=1)
    assert not third["correct"]
    assert any("iqr.iqr_single.calls" in p for p in record["problems"])


def test_inputs_depend_only_on_the_seed(tmp_path):
    wl = tiny("qr_small")
    a, b, c = (workloads.build_inputs(wl, s, tmp_path) for s in (5, 5, 6))
    assert all(np.array_equal(x.matrix, y.matrix) and x.solver_seed == y.solver_seed for x, y in zip(a, b))
    assert not np.array_equal(a[0].matrix, c[0].matrix)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qr_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
