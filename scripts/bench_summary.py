"""Fold perfbench result files into one committed benchmark summary.

    python scripts/bench_summary.py --out BENCH_<n>.json [--baseline DIR] [DIR]

DIR (default: this checkout's ``.perfbench_out``) holds the files that
``perfbench/run.py`` writes, ``<workload>-seed<n>-trace<t>.json``.  For each
workload the summary keeps every ``--trace 0`` run (its end-to-end metrics,
``failed``, ``correct`` and the times before perfbench's rescaling to
nominal machine speed), the medians over them, the medians of the rescaled
times before rescaling (``unscaled_median``: perfbench's rescaling alone
can move a reading by 10-15 %), and the per-layer metrics of the
``--trace 1`` run at seed 11.  With ``--baseline``, the same files of
another checkout (run at the same seeds, alternating with these) are paired
with these by seed: for each end-to-end metric the summary gives both
medians, the quartiles of the baseline runs, and how many pairs the change
wins.  The environment, the ``src/hessqr`` line counts and source hashes are
taken from the result files.  Only the standard library is used.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>[a-z_]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
TRACE_SEED = 11


def _end_to_end():
    """{metric: 'lower' | 'higher'} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _load(directory):
    """{(workload, trace): {seed: result file}} of one results directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        m = NAME.match(path.name)
        if m:
            doc = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault((m["workload"], int(m["trace"])), {})[int(m["seed"])] = doc
    return runs


def _values(doc):
    return {name: entry["value"] for name, entry in doc["result"]["metrics"].items()}


def _trace0(docs, metrics):
    rows = [
        {"seed": seed, "failed": doc["result"]["failed"], "correct": doc["result"]["correct"],
         "unscaled_s": doc.get("unscaled_s"), **{k: v for k, v in _values(doc).items() if k in metrics}}
        for seed, doc in sorted(docs.items())
    ]
    medians = {k: statistics.median(r[k] for r in rows) for k in metrics if all(k in r for r in rows)}
    unscaled = {k: statistics.median(r["unscaled_s"][k] for r in rows)
                for k in metrics if all(k in (r["unscaled_s"] or {}) for r in rows)}
    return {"runs": rows, "median": medians, "unscaled_median": unscaled}


def _pairs(change, baseline, metrics):
    seeds = sorted(set(change) & set(baseline))
    out = {"seeds": seeds}
    if len(seeds) < 2:
        return out
    for name, better in metrics.items():
        new = [_values(change[s])[name] for s in seeds]
        old = [_values(baseline[s])[name] for s in seeds]
        q1, _, q3 = statistics.quantiles(old, n=4)
        wins = sum((a < b) if better == "lower" else (a > b) for a, b in zip(new, old))
        out[name] = {
            "baseline_median": statistics.median(old),
            "change_median": statistics.median(new),
            "baseline_quartiles": [q1, q3],
            "change_better_pairs": wins,
        }
    return out


def summarize(directory, baseline=None):
    metrics = _end_to_end()
    runs = _load(directory)
    base = _load(baseline) if baseline else {}
    envs = [doc["environment"] for docs in runs.values() for doc in docs.values()]
    summary = {
        "environment": {k: v for k, v in envs[-1].items() if k not in ("src_hessqr_lines", "src_sha256")} if envs else None,
        "src_hessqr_lines": sorted({env["src_hessqr_lines"] for env in envs}),
        "src_sha256": sorted({env["src_sha256"] for env in envs}),
        "workloads": {},
    }
    for (workload, trace), docs in sorted(runs.items()):
        entry = summary["workloads"].setdefault(workload, {})
        if trace == 0:
            entry["trace0"] = _trace0(docs, metrics)
            if (workload, 0) in base:
                entry["baseline_trace0"] = _trace0(base[workload, 0], metrics)
                entry["pairs"] = _pairs(docs, base[workload, 0], metrics)
        elif TRACE_SEED in docs:
            doc = docs[TRACE_SEED]
            entry["trace1"] = {"seed": TRACE_SEED, "failed": doc["result"]["failed"],
                               "correct": doc["result"]["correct"], "metrics": _values(doc)}
            if TRACE_SEED in base.get((workload, 1), {}):
                entry["baseline_trace1"] = {"metrics": _values(base[workload, 1][TRACE_SEED])}
    if base:
        first = next(iter(base.values()))
        summary["baseline_environment"] = next(iter(first.values()))["environment"]
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("directory", nargs="?", default=str(ROOT / ".perfbench_out"))
    p.add_argument("--baseline", help="result directory of the checkout compared against")
    p.add_argument("--out", required=True, help="summary file to write, BENCH_<n>.json")
    args = p.parse_args(argv)
    summary = summarize(args.directory, args.baseline)
    if not summary["workloads"]:
        print(f"error: no perfbench result files in {args.directory}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
