"""One benchmark run: set-up, timed solves, correctness gate, metrics.

An untraced run (``trace=0``) solves as many of the workload's inputs as fit
in a third of the time budget, three times over, and reports the end-to-end
metrics at nominal machine speed (see calibrate.py).  A traced run
(``trace=1``) solves each of the first ``trace_inputs`` inputs once untraced
and once under the tracer, and reports the per-layer metrics; its input count is fixed so that its work counts repeat
exactly for a fixed seed.  Checking happens outside every timed region.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import mpmath
import numpy as np
import scipy

from calibrate import SHARE, Clock
from hessqr.errors import HessqrError
from tracer import Tracer
from workloads import WORKLOADS, Reference, build_inputs, read_output, solve

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
ROUNDS = 3  # timed repeats of each input in an untraced run
SETUP_PROBES = 2  # extra cold set-ups, each in a fresh interpreter


@dataclass
class Solve:
    index: int
    wall_s: float
    error: Optional[str] = None
    eigs: Optional[np.ndarray] = None
    delta: Optional[float] = None
    distance: Optional[float] = None
    bound: Optional[float] = None
    ok: bool = False

    def record(self, inputs):
        return {
            "input": self.index,
            "solver_seed": inputs[self.index].solver_seed,
            "wall_s": self.wall_s,
            "error": self.error,
            "distance": self.distance,
            "bound": self.bound,
            "ok": self.ok,
        }


def _solve_timed(wl, inputs, index, out_json):
    """Solve one input; only the call into the program is timed."""
    t = time.perf_counter()
    try:
        result = solve(wl, inputs[index], out_json)
    except HessqrError as exc:
        return Solve(index, time.perf_counter() - t, error=f"{type(exc).__name__}: {exc}"), None
    wall = time.perf_counter() - t
    eigs, delta = read_output(wl, result, out_json)
    return Solve(index, wall, eigs=eigs, delta=delta), result


def _untraced_rounds(wl, inputs, seconds, out_json):
    """Solve a prefix of the inputs ROUNDS times over.

    The first round takes inputs in order while it fits in 1/ROUNDS of the
    budget (at least one input); that fixes the prefix the later rounds
    repeat.  The calibration loop runs before the first solve and after each
    one (see calibrate.py)."""
    clock = Clock()
    clock.calibrate()

    def timed(i):
        s = _solve_timed(wl, inputs, i, out_json)[0]
        clock.calibrate(s.wall_s)
        return s

    solves = []
    start = time.perf_counter()
    while len(solves) < len(inputs):
        solves.append(timed(len(solves)))
        typical = statistics.median(s.wall_s for s in solves)
        if time.perf_counter() - start + typical * (1 + SHARE) > seconds / ROUNDS:
            break
    count = len(solves)
    for _ in range(ROUNDS - 1):
        solves += [timed(i) for i in range(count)]
    return solves, clock


def _wall_s(solves):
    """Median over inputs of each input's fastest solve.

    The machine's speed drifts with other load, which only ever adds time, so
    the fastest of an input's identical repeats is its steadiest estimate."""
    fastest = {}
    for s in solves:
        fastest[s.index] = min(s.wall_s, fastest.get(s.index, float("inf")))
    return statistics.median(fastest.values())


def _check(wl, inputs, solves):
    """Apply the correctness gate to every successful solve, in place."""
    refs = {}
    for s in solves:
        if s.error is not None:
            continue
        if s.index not in refs:
            refs[s.index] = Reference(wl, inputs[s.index])
        s.ok, s.distance, s.bound = refs[s.index].check(s.eigs, s.delta)


def _traced(wl, inputs, out_json):
    """An untraced and a traced solve of each of the first trace_inputs inputs.

    One untimed warm-up solve first keeps first-call costs out of the
    traced/untraced comparison."""
    count = min(wl.trace_inputs, len(inputs))
    root = "cli.main" if wl.cli else "driver.shifted_qr"
    _solve_timed(wl, inputs, 0, out_json)
    tracer = Tracer()
    plain, traced = [], []
    for i in range(count):
        plain.append(_solve_timed(wl, inputs, i, out_json)[0])
        with tracer.patched(), tracer.span(root):
            s, result = _solve_timed(wl, inputs, i, out_json)
        if result is not None:  # the CLI route's tree comes from the driver.shifted_qr wrapper
            tracer.add_tree(result)
        traced.append(s)
    problems = tracer.problems()
    for p, t in zip(plain, traced):
        if p.error is None and t.error is None and not np.array_equal(p.eigs, t.eigs):
            problems.append(f"input {p.index}: traced eigenvalues differ from untraced ones")
    metrics = tracer.metrics(sum(s.wall_s for s in plain), count)
    return plain + traced, metrics, problems


def _repeat_check(wl, seed, metrics, src_digest):
    """Work counts must repeat exactly across traced runs of one seed and source.

    The first traced run of a (workload, seed, source) writes its counts; each
    later one compares against them."""
    counts = {
        name: value
        for name, (value, unit) in metrics.items()
        if unit != "s" and name != "trace.overhead_frac"
    }
    path = OUT / f"counts-{wl.name}-seed{seed}-{src_digest[:16]}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="ascii")
        return []
    before = json.loads(path.read_text(encoding="ascii"))
    return [
        f"{name} = {counts.get(name)} differs from {before.get(name)} in an earlier traced run"
        for name in sorted(set(counts) | set(before))
        if counts.get(name) != before.get(name)
    ]


def _setup_probes(wl, seed, count):
    """Set-up seconds of ``count`` fresh interpreters (run one after another)."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", wl.name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def source_stats():
    """(line count, sha256) of the program's sources under src/hessqr."""
    files = sorted((ROOT / "src" / "hessqr").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def environment():
    lines, digest = source_stats()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest,
        "src_hessqr_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run(wl, seed, seconds, trace, t0, setup_probes=SETUP_PROBES):
    """One run of one workload; returns (result line object, record)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = build_inputs(wl, seed, tmp)
        own_setup = time.perf_counter() - t0
        env = environment()
        out_json = Path(tmp) / "out.json"
        if trace:
            solves, layer_metrics, problems = _traced(wl, inputs, out_json)
        else:
            (solves, clock), problems = _untraced_rounds(wl, inputs, seconds, out_json), []
    _check(wl, inputs, solves)
    if trace:
        problems += _repeat_check(wl, seed, layer_metrics, env["src_sha256"])
        metrics = layer_metrics
    else:
        setups = [own_setup] + _setup_probes(wl, seed, setup_probes)
        unscaled = {"wall_s": _wall_s(solves), "setup_s": statistics.median(setups)}
        metrics = {
            "wall_s": (clock.nominal(unscaled["wall_s"]), "s"),
            "setup_s": (clock.nominal(unscaled["setup_s"]), "s"),
            "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    failed = sum(not s.ok for s in solves)
    line = {
        "correct": failed == 0 and not problems,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "problems": problems,
        "solves": [s.record(inputs) for s in solves],
        "result": line,
    }
    if not trace:
        record["unscaled_s"] = unscaled
        record["setup_samples_s"] = setups
        record["calibration_loop_s"] = clock.samples
    return line, record


def main(args, t0):
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            build_inputs(wl, args.seed, tmp)
            print(time.perf_counter() - t0)
        return 0
    line, record = run(wl, args.seed, args.seconds, args.trace, t0)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for s in record["solves"]:
        if not s["ok"]:
            print(f"failed: {s}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"result file: {path}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
