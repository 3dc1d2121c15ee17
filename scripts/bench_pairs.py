"""Benchmark two checkouts in alternating pairs and summarize the pairs.

    python scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        [--seeds 1..10] [--seconds 45] --out BENCH_<n>.json

For each workload and each seed, in that order, runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
both checkouts, one right after the other, so that the two runs of a pair
are next to each other in time; PARENT runs first at the first seed, CHANGE
at the second, and so on alternately, so that neither side always runs
first.  Then each checkout makes one ``--trace 1`` run per workload at
``bench_summary.TRACE_SEED``, the seed the summary reads the per-layer
metrics from.  Finally ``scripts/bench_summary.py CHANGE/.perfbench_out
--baseline PARENT/.perfbench_out --out OUT`` folds the pairs into one
summary.

perfbench writes its result files to ``.perfbench_out`` in each checkout,
and the summary reads every result file there; the script refuses to start
when either directory holds a result file that this run would not
overwrite.  Seeds are a comma-separated list of numbers and ranges
``A..B`` (both ends included).  The exit code is 1 when a perfbench run
failed (its output is printed) or the summary failed, and 0 otherwise.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # bench_summary.py sits next to this file
import bench_summary  # noqa: E402

RESULT = re.compile(r"^[a-z_]+-seed\d+-trace[01]\.json$")


def parse_seeds(text):
    """'1..3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("..")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def plan(parent, change, workloads, seeds, seconds):
    """The perfbench runs in the order they run: (checkout, argv) pairs."""
    runs = []
    for wl in workloads:
        for i, seed in enumerate(seeds):
            for root in ((parent, change) if i % 2 == 0 else (change, parent)):
                runs.append((root, ["perfbench/run.py", "--workload", wl, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"]))
        for root in (parent, change):
            runs.append((root, ["perfbench/run.py", "--workload", wl, "--seed",
                                str(bench_summary.TRACE_SEED),
                                "--seconds", str(seconds), "--trace", "1"]))
    return runs


def _result_name(argv):
    opt = dict(zip(argv[1::2], argv[2::2]))
    return f"{opt['--workload']}-seed{opt['--seed']}-trace{opt['--trace']}.json"


def stale_results(runs):
    """Result files in the checkouts' .perfbench_out that no run rewrites."""
    planned = {(Path(root), _result_name(argv)) for root, argv in runs}
    stale = []
    for root in sorted({Path(root) for root, _ in runs}):
        out = root / ".perfbench_out"
        if out.is_dir():
            stale += [p for p in sorted(out.iterdir())
                      if RESULT.match(p.name) and (root, p.name) not in planned]
    return stale


def run_pairs(parent, change, workloads, seeds, seconds, out, runner):
    """Every run of ``plan``, then the summary, each through
    runner(argv, cwd) -> exit code.  Returns the number of failed runs."""
    failed = 0
    runs = plan(parent, change, workloads, seeds, seconds)
    for i, (root, argv) in enumerate(runs, 1):
        print(f"[{i}/{len(runs)}] {root}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
        failed += runner([sys.executable] + argv, root) != 0
    summary = [sys.executable, str(HERE / "bench_summary.py"), str(Path(change) / ".perfbench_out"),
               "--baseline", str(Path(parent) / ".perfbench_out"), "--out", str(out)]
    failed += runner(summary, Path.cwd()) != 0
    return failed


def _run(argv, cwd):
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
    return proc.returncode


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout measured as the baseline")
    p.add_argument("change", help="checkout measured against it")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1..10"))
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--out", required=True, help="summary file to write, BENCH_<n>.json")
    args = p.parse_args(argv)
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    stale = stale_results(plan(parent, change, args.workload, args.seeds, args.seconds))
    if stale:
        print("error: result files this run would not overwrite; move them away first:",
              *stale, sep="\n  ", file=sys.stderr)
        return 2
    failed = run_pairs(parent, change, args.workload, args.seeds, args.seconds,
                       Path(args.out).resolve(), _run)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
